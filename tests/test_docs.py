"""Documentation guarantees, enforced.

Two checks keep the docs honest as the system grows:

* every public module under ``repro.resilience``, ``repro.witness``,
  and ``repro.core`` carries a module docstring that names the paper
  section or proposition it implements (so code and paper stay
  cross-referenced at the module level);
* every relative link in the repository's Markdown files resolves to a
  real file (the CI docs job runs this test, so broken cross-links
  fail the build).
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

# Packages whose modules must anchor themselves in the paper.
AUDITED_PACKAGES = (
    "resilience",
    "witness",
    "core",
    "parallel",
    "incremental",
    "serving",
    "planner",
    "storage",
    "ijp",
)

# Standalone documentation pages every release must ship (each one is
# also link-checked below like any other Markdown file).
REQUIRED_DOCS_PAGES = (
    "docs/architecture.md",
    "docs/solvers.md",
    "docs/parallelism.md",
    "docs/api.md",
    "docs/incremental.md",
    "docs/performance.md",
    "docs/serving.md",
    "docs/ijp.md",
)

# Modules outside the audited packages that must still anchor
# themselves in the paper (hot-path engine layers).
EXTRA_AUDITED_MODULES = ("query/columnar.py",)

# What counts as "naming a paper section or proposition".
PAPER_REFERENCE = re.compile(
    r"(§\s*\d"
    r"|Section\s+\d"
    r"|Propositions?\s+\d"
    r"|Prop\.?\s*\d"
    r"|Theorems?\s+\d"
    r"|Thm\s+\d"
    r"|Definitions?\s+\d"
    r"|Def\.?\s+\d"
    r"|Lemmas?\s+\d"
    r"|Figures?\s+\d"
    r"|Fig\.?\s*\d"
    r"|Appendix\s+[A-Z])"
)

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _audited_modules():
    modules = []
    for package in AUDITED_PACKAGES:
        for path in sorted((SRC_ROOT / package).glob("*.py")):
            modules.append(path)
    for rel in EXTRA_AUDITED_MODULES:
        modules.append(SRC_ROOT / rel)
    return modules


def _module_docstring(path: Path) -> str:
    import ast

    tree = ast.parse(path.read_text())
    return ast.get_docstring(tree) or ""


@pytest.mark.parametrize(
    "path", _audited_modules(), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_module_docstring_names_paper_anchor(path):
    """Every audited module states which paper result it implements."""
    doc = _module_docstring(path)
    assert doc, f"{path} has no module docstring"
    assert PAPER_REFERENCE.search(doc), (
        f"{path} docstring does not name a paper section/proposition "
        f"(expected something matching e.g. 'Section 2', 'Proposition 31', "
        f"'Theorem 24')"
    )


def _markdown_files():
    return sorted(
        p
        for p in REPO_ROOT.rglob("*.md")
        if not any(part.startswith(".") for part in p.parts)
    )


@pytest.mark.parametrize(
    "md_path", _markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_markdown_relative_links_resolve(md_path):
    """Relative links in Markdown must point at files that exist."""
    broken = []
    for target in MARKDOWN_LINK.findall(md_path.read_text()):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target) or target.startswith("#"):
            continue  # absolute URL (http:, mailto:, ...) or in-page anchor
        target_path = target.split("#", 1)[0]
        if not target_path:
            continue
        if not (md_path.parent / target_path).exists():
            broken.append(target)
    assert not broken, f"{md_path}: broken relative links {broken}"


def test_audit_covers_the_expected_packages():
    """The audit walks real files — guard against a silently empty glob."""
    modules = _audited_modules()
    names = {p.name for p in modules}
    assert "approx.py" in names and "structure.py" in names
    assert "executor.py" in names and "shards.py" in names  # repro.parallel
    assert "session.py" in names  # repro.incremental
    assert "columnar.py" in names  # the vectorized join layer
    assert {"server.py", "wire.py", "admission.py", "client.py"} <= names
    assert "features.py" in names  # repro.planner
    assert {"layout.py", "stored.py"} <= names  # repro.storage
    assert {"rgs.py", "space.py", "sweep.py"} <= names  # repro.ijp
    assert len(modules) >= 30


@pytest.mark.parametrize("page", REQUIRED_DOCS_PAGES)
def test_required_docs_pages_exist(page):
    """Every documented subsystem ships its page (the link check above
    then validates the page's own cross-references)."""
    path = REPO_ROOT / page
    assert path.is_file(), f"missing documentation page {page}"
    assert path.read_text().lstrip().startswith("#"), f"{page} has no title"


@pytest.mark.parametrize(
    "page",
    (
        "docs/parallelism.md",
        "docs/api.md",
        "docs/incremental.md",
        "docs/serving.md",
        "docs/ijp.md",
    ),
)
def test_readme_links_the_new_pages(page):
    """README's API section must route readers to the reference pages."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert page in readme, f"README.md does not link {page}"


def test_performance_page_documents_the_engine_knobs():
    """docs/performance.md must name the hook that forces each layer's
    backend, the min cut's reference oracle, and the benchmark
    trajectory it teaches readers to refresh."""
    page = (REPO_ROOT / "docs" / "performance.md").read_text()
    for needle in (
        "tests/oracles/engines.py",
        "tests/oracles/flow.py",
        "MIN_TUPLES_DEFAULT",
        "REPRO_COLUMNAR_CHUNK_ROWS",
        "BENCH_e18_hotpaths.json",
        "bench --json",
    ):
        assert needle in page, f"docs/performance.md does not mention {needle}"


def test_performance_page_documents_out_of_core_storage():
    """docs/performance.md must cover the 1.8.0 storage engine: the
    snapshot layout, the streaming enumeration, and the E22 gate."""
    page = (REPO_ROOT / "docs" / "performance.md").read_text()
    for needle in (
        "Out-of-core storage",
        "repro.storage",
        "Chunked streaming enumeration",
        "numpy.memmap",
        "ingest_database",
        "SnapshotWriter",
        "open_stored_database",
        "content_digest",
        "BENCH_e22_outofcore.json",
        "REPRO_BENCH_E22_TUPLES",
    ):
        assert needle in page, f"docs/performance.md does not mention {needle}"


def test_api_page_documents_the_storage_surface():
    """docs/api.md must record the 1.8.0 storage API: the snapshot
    lifecycle symbols, the read-only handle, and the layout version."""
    page = (REPO_ROOT / "docs" / "api.md").read_text()
    for needle in (
        "Out-of-core snapshots",
        "ingest_database",
        "SnapshotWriter",
        "open_snapshot",
        "open_stored_database",
        "StoredDatabase",
        "LAYOUT_VERSION",
        "storage_snapshot",
        "REPRO_COLUMNAR_CHUNK_ROWS",
    ):
        assert needle in page, f"docs/api.md does not mention {needle}"


def test_outofcore_bench_record_exists():
    """The E22 out-of-core benchmark has committed its trajectory
    record with every gate passing."""
    import json

    record = json.loads((REPO_ROOT / "BENCH_e22_outofcore.json").read_text())
    assert record["bench"] == "e22_outofcore"
    gates = record["gates"]
    assert gates["under_ceiling"] is True
    assert gates["peak_rss_mb"] <= gates["rss_ceiling_mb"]
    assert gates["value_matches_ground_truth"] is True
    assert gates["bit_identical_at_overlap"] is True
    assert gates["columnar_out_of_core"] is True


def test_bench_trajectory_record_exists():
    """The machine-readable benchmark trajectory has its first entry."""
    import json

    record = json.loads((REPO_ROOT / "BENCH_e18_hotpaths.json").read_text())
    assert record["bench"] == "e18_hotpaths"
    assert set(record["layers"]) == {
        "a_structure_build",
        "b_bnb_solve",
        "c_flow_min_cut",
    }
    for layer in record["layers"].values():
        assert layer["speedup"] >= layer["gate"]


def test_serving_page_documents_the_protocol():
    """docs/serving.md must cover the endpoints, the coalescing story,
    and every serving environment variable."""
    page = (REPO_ROOT / "docs" / "serving.md").read_text()
    for needle in (
        "POST /solve",
        "POST /solve_batch",
        "GET /health",
        "GET /metrics",
        "coalesc",  # coalescing / coalesced
        "admission",
        "wire_schema",
        "Retry-After",
        "repro serve",
        "REPRO_SERVING_MAX_EXACT_TUPLES",
        "REPRO_SERVING_MAX_CONCURRENT",
        "BENCH_e19_serving.json",
    ):
        assert needle in page, f"docs/serving.md does not mention {needle}"


def test_serving_bench_record_exists():
    """The E19 serving benchmark has committed its trajectory record."""
    import json

    record = json.loads((REPO_ROOT / "BENCH_e19_serving.json").read_text())
    assert record["bench"] == "e19_serving"
    gates = record["gates"]
    assert gates["coalescing_speedup"]["value"] >= gates["coalescing_speedup"]["gate"]
    assert gates["warm_p99_ms"]["value"] <= gates["warm_p99_ms"]["gate"]
    assert record["answers_bit_identical"] is True


def test_solvers_page_documents_the_weighted_objective():
    """docs/solvers.md must teach the min-cost objective: the cost
    semantics, the delegation contract, and the flow soundness
    boundary (the normalization caveat is load-bearing)."""
    page = (REPO_ROOT / "docs" / "solvers.md").read_text()
    for needle in (
        "weighted=True",
        "minimum-cost hitting set",
        "unit-cost delegation",
        "cost-aware",
        "q_perm",
        "normalization",
        "bench_e20_weighted",
    ):
        assert needle in page, f"docs/solvers.md does not mention {needle}"


def test_api_page_documents_weighted_and_the_schema_bumps():
    """docs/api.md must record the 1.6.0 surface: the weighted kwarg,
    the wire schema bump, and the cache-key invalidation note."""
    page = (REPO_ROOT / "docs" / "api.md").read_text()
    for needle in (
        "weighted=True",
        "cost=",
        "has_weighted_costs",
        "Wire schema bumped 1 → 2",
        "CACHE_SCHEMA",
        "assign_skewed_costs",
        "BENCH_e20_weighted.json",
    ):
        assert needle in page, f"docs/api.md does not mention {needle}"
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    assert '"costs"' in serving and '"weighted"' in serving, (
        "docs/serving.md does not document the schema-2 wire fields"
    )


def test_weighted_bench_record_exists():
    """The E20 weighted benchmark has committed its trajectory record."""
    import json

    record = json.loads((REPO_ROOT / "BENCH_e20_weighted.json").read_text())
    assert record["bench"] == "e20_weighted"
    gates = record["gates"]
    assert gates["flow_vs_ilp_cases"] > 0
    assert gates["kernel_bnb_vs_ilp_cases"] > 0
    assert gates["unit_cost_delegation_cases"] > 0
    assert record["all_agreed"] is True


def test_api_page_records_the_2_0_removals():
    """docs/api.md's 2.0.0 entry must name every removed planner name,
    variable, flag and metric, so upgraders can find what went."""
    page = (REPO_ROOT / "docs" / "api.md").read_text()
    entry = page[page.index("**2.0.0**"):page.index("**1.9.0**")]
    for needle in (
        "CostModel",
        "DEFAULT_MODEL",
        "calibrate",
        "load_model",
        "active_model",
        "REPRO_PLANNER_MODEL",
        "REPRO_PLANNER",
        "planner_enabled",
        "planner=",
        "PairTask.planner",
        "cost_hint",
        "bench --planner",
        "planner calibrate",
        "active_plan",
        "use_plan",
        "BatchStats.plans",
        "record_plan",
        "REPRO_COLUMNAR_MIN_TUPLES",
        "min_columnar_tuples",
        "is_large_instance",
        "size_class",
        "BENCH_e21_planner.json",
    ):
        assert needle in entry, f"docs/api.md 2.0.0 entry does not name {needle}"


def test_api_page_records_the_2_6_removals():
    """docs/api.md's 2.6.0 entry must name every removed public name,
    so upgraders can find what went."""
    page = (REPO_ROOT / "docs" / "api.md").read_text()
    entry = page[page.index("**2.6.0**"):page.index("**2.5.0**")]
    for needle in (
        "split_components",
        "split=True",
        "tuple_bitsets",
    ):
        assert needle in entry, f"docs/api.md 2.6.0 entry does not name {needle}"


def test_ijp_page_documents_the_distributed_search():
    """docs/ijp.md must cover the Definition 48 conditions, the RGS
    engine's pruning/prescreen layers, the sharded sweep's resume
    semantics, and the open-query table with its degenerate-certificate
    punchline."""
    page = (REPO_ROOT / "docs" / "ijp.md").read_text()
    for needle in (
        "Definition 48",
        "Conjecture 49",
        "restricted growth string",
        "hitting-set prescreen",
        "repro ijp sweep",
        "--cache-dir",
        "--workers",
        "shard",
        "resume",
        "OPEN_QUERY_STATUS",
        "proper",
        "degenerate",
        "q_S3cc",
        "q_AS3conf",
        "q_z6",
        "bit-identical",
        "BENCH_e23_ijp.json",
        "REPRO_BENCH_E23_COPIES",
    ):
        assert needle in page, f"docs/ijp.md does not mention {needle}"


def test_api_page_documents_the_ijp_surface():
    """docs/api.md must record the 1.9.0 IJP search surface."""
    page = (REPO_ROOT / "docs" / "api.md").read_text()
    for needle in (
        "sweep_space",
        "sweep_range",
        "standing_sweep",
        "tests/oracles/ijp.py",
        "IJPCertificate",
        "OPEN_QUERY_STATUS",
        "certificate_is_proper",
        "random_three_occurrence_cq",
        "declare_vocabulary",
        "BENCH_e23_ijp.json",
    ):
        assert needle in page, f"docs/api.md does not mention {needle}"


def test_ijp_bench_record_exists():
    """The E23 distributed-IJP benchmark has committed its trajectory
    record with every gate passing."""
    import json

    record = json.loads((REPO_ROOT / "BENCH_e23_ijp.json").read_text())
    assert record["bench"] == "e23_ijp"
    gates = record["gates"]
    assert gates["speedup_vs_reference"]["value"] >= (
        gates["speedup_vs_reference"]["gate"]
    )
    assert gates["parallel_bit_identical"] is True
    assert gates["triangle_rediscovered"] is True
    assert gates["resume_without_recompute"] is True


def test_api_reference_tracks_the_package_version():
    """docs/api.md documents a version; it must be the shipped one."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import repro
    finally:
        sys.path.pop(0)
    api = (REPO_ROOT / "docs" / "api.md").read_text()
    assert repro.__version__ in api, (
        f"docs/api.md does not mention the current version "
        f"{repro.__version__}"
    )
