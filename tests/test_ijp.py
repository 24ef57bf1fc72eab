"""Tests for Independent Join Paths (Section 9, Appendix C)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Database, DBTuple
from repro.ijp import (
    canonical_database,
    check_ijp,
    example_58_qvc,
    example_59_triangle,
    example_60_z5,
    example_60_z5_corrected,
    example_61_failed,
    find_ijp_pair,
    ijp_search,
    ijp_search_reference,
    set_partitions,
)
from repro.ijp import rgs as rgs_mod
from repro.ijp.space import PartitionSpace, sweep_space
from repro.ijp.sweep import (
    OPEN_QUERIES,
    OPEN_QUERY_STATUS,
    allocate_budgets,
    certificate_is_proper,
    default_shard_count,
    sweep,
    sweep_range,
)
from repro.query.zoo import q_ACconf, q_Aperm, q_chain, q_perm, q_triangle, q_vc


class TestChecker:
    def test_example_58_is_ijp(self):
        q, db, pair = example_58_qvc()
        report = check_ijp(db, q, *pair)
        assert report.is_ijp
        assert report.resilience == 1

    def test_example_59_is_ijp(self):
        q, db, pair = example_59_triangle()
        report = check_ijp(db, q, *pair)
        assert report.is_ijp
        assert report.resilience == 2

    def test_example_60_as_printed_fails_condition_5(self):
        """Erratum: the printed database has the extra witness (5,2,3);
        removing A(13) leaves resilience 4, so condition 5 fails."""
        q, db, pair = example_60_z5()
        report = check_ijp(db, q, *pair)
        assert not report.is_ijp
        assert report.conditions[:4] == [True, True, True, True]
        assert report.conditions[4] is False
        assert report.resilience == 4  # matches the paper's rho

    def test_example_60_corrected_is_ijp(self):
        q, db, pair = example_60_z5_corrected()
        report = check_ijp(db, q, *pair)
        assert report.is_ijp
        assert report.resilience is not None

    def test_example_61_fails_condition_4(self):
        """Example 61: exogenous A holds a subvector of one endpoint only."""
        q, db, pair = example_61_failed()
        report = check_ijp(db, q, *pair)
        assert not report.is_ijp
        assert report.conditions[3] is False

    def test_comparable_endpoints_fail_condition_1(self):
        q, db, _ = example_58_qvc()
        t = DBTuple("R", (1,))
        report = check_ijp(db, q, t, t)
        assert not report.conditions[0]

    def test_find_ijp_pair(self):
        q, db, pair = example_59_triangle()
        report = find_ijp_pair(db, q)
        assert report is not None
        assert set(report.pair) == set(pair)

    def test_condition_2_requires_single_witness(self):
        # R(1) sits in two witnesses once we add a second edge.
        db = Database()
        db.add_all("R", [1, 2, 3])
        db.add_all("S", [(1, 2), (1, 3)])
        report = check_ijp(
            db, q_vc, DBTuple("R", (1,)), DBTuple("R", (2,))
        )
        assert not report.conditions[1]


class TestSearch:
    def test_canonical_database(self):
        db = canonical_database(q_chain)
        assert len(db) == 2

    def test_set_partitions_bell_numbers(self):
        assert len(list(set_partitions([1]))) == 1
        assert len(list(set_partitions([1, 2]))) == 2
        assert len(list(set_partitions([1, 2, 3]))) == 5
        assert len(list(set_partitions(list(range(5))))) == 52

    def test_search_finds_qvc_ijp(self):
        report = ijp_search(q_vc, max_joins=1)
        assert report is not None

    def test_search_finds_qchain_ijp(self):
        report = ijp_search(q_chain, max_joins=2)
        assert report is not None

    def test_search_empty_for_easy_qperm(self):
        """PTIME queries should not admit IJPs (Conjecture 49 converse)."""
        assert ijp_search(q_perm, max_joins=2, partition_budget=5000) is None

    def test_search_empty_for_easy_qAperm(self):
        assert ijp_search(q_Aperm, max_joins=1) is None


class TestSearchOnHardQueries:
    """Positive evidence: the search certifies the NP-complete queries."""

    def test_abperm_ijp_found(self):
        from repro.query.zoo import q_ABperm

        assert ijp_search(q_ABperm, max_joins=3, partition_budget=50000) is not None

    def test_cfp_ijp_found(self):
        from repro.query.zoo import q_cfp

        assert ijp_search(q_cfp, max_joins=2, partition_budget=20000) is not None

    def test_ac3conf_ijp_found(self):
        from repro.query.zoo import q_AC3conf

        assert ijp_search(q_AC3conf, max_joins=2, partition_budget=20000) is not None


class TestDefinition48Gaps:
    """Reproduction finding: Definition 48 as printed is satisfiable by
    PTIME queries, so Conjecture 49 needs extra (gluing) conditions.

    These tests pin the behaviour so the finding stays visible; if a
    future refinement of the checker rejects these databases, the
    assertions should flip.
    """

    def test_qACconf_admits_degenerate_ijp(self):
        from repro.query.zoo import q_ACconf

        report = ijp_search(q_ACconf, max_joins=2, partition_budget=20000)
        assert report is not None  # despite q_ACconf being PTIME (Prop 12)

    def test_qSwx3perm_admits_degenerate_ijp(self):
        from repro.query.zoo import q_Swx3perm_R

        report = ijp_search(q_Swx3perm_R, max_joins=1)
        assert report is not None  # despite q_Swx3perm_R being PTIME (Prop 44)

    def test_qTS3conf_admits_degenerate_ijp_at_two_joins(self):
        from repro.query.zoo import q_TS3conf

        # Empty at one join copy, but not at two, despite q_TS3conf
        # being PTIME (Prop 41).
        assert ijp_search(q_TS3conf, max_joins=1) is None
        report = ijp_search(q_TS3conf, max_joins=2)
        assert report is not None and report.is_ijp
        assert report.pair == (DBTuple("R", (1, 1)), DBTuple("R", (2, 2)))
        # The certificate rebuilds and passes the checker on its own.
        cert = sweep_space(q_TS3conf, 2, stop_on_first=True).certificates[0]
        assert cert.pair == report.pair
        recheck = check_ijp(cert.database(q_TS3conf), q_TS3conf, *cert.pair)
        assert recheck.is_ijp
        assert recheck.resilience == report.resilience
        assert not certificate_is_proper(cert)  # reflexive endpoints

    def test_other_ptime_queries_stay_empty(self):
        from repro.query.zoo import q_A3perm_R, q_z3

        assert ijp_search(q_z3, max_joins=2, partition_budget=20000) is None
        assert ijp_search(q_A3perm_R, max_joins=1) is None


class TestSearchRediscoversTrianglePartition:
    def test_triangle_ijp_found_with_three_joins(self):
        """Example 62: the Bell enumeration over 3 canonical copies of
        q_triangle rediscovers an IJP (21147 partitions for 9 constants)."""
        report = ijp_search(q_triangle, max_joins=3, partition_budget=30000)
        assert report is not None
        a, b = report.pair
        assert a.relation == b.relation


class TestRGS:
    """The vectorized restricted-growth-string kernel vs. its recursive
    reference — the same baseline discipline as set_partitions."""

    def test_bell_numbers(self):
        for n, b in [(0, 1), (1, 1), (3, 5), (5, 52), (9, 21147)]:
            assert rgs_mod.bell_number(n) == b

    @given(st.integers(min_value=0, max_value=6))
    def test_leaf_batches_match_reference_enumeration(self, n):
        reference = list(rgs_mod.rgs_reference(n))
        leaves = [
            tuple(int(d) for d in row)
            for batch in rgs_mod.iter_leaf_batches(n)
            for row in batch.codes
        ]
        assert leaves == reference

    @given(st.integers(min_value=1, max_value=6), st.integers(1, 64))
    def test_leaf_batches_independent_of_max_rows(self, n, max_rows):
        small = [
            tuple(int(d) for d in row)
            for batch in rgs_mod.iter_leaf_batches(n, max_rows=max_rows)
            for row in batch.codes
        ]
        assert small == list(rgs_mod.rgs_reference(n))

    @given(st.integers(min_value=1, max_value=7))
    def test_partition_roundtrip(self, n):
        items = [("t", i) for i in range(n)]
        for code in rgs_mod.rgs_reference(n):
            partition = rgs_mod.partition_from_rgs(code, items)
            assert rgs_mod.rgs_from_partition(partition, items) == code

    def test_pruned_leaves_counted_exactly(self):
        """An aggressive pruner's dropped subtrees are charged exactly:
        enumerated + pruned always equals the Bell number."""
        def pruner(codes, maxes):
            # Drop every prefix whose last digit is 0 past position 1.
            keep = np.ones(codes.shape[0], dtype=bool)
            if codes.shape[1] >= 2:
                keep = codes[:, -1] != 0
            return keep

        enumerated = 0
        pruned = 0
        for batch in rgs_mod.iter_leaf_batches(6, pruner=pruner, max_rows=32):
            enumerated += batch.codes.shape[0]
            pruned += batch.pruned
        assert pruned > 0
        assert enumerated + pruned == rgs_mod.bell_number(6)

    @pytest.mark.parametrize("n,num_shards", [(5, 3), (9, 8), (9, 64)])
    def test_shards_cover_the_space_in_order(self, n, num_shards):
        shards = rgs_mod.shard_space(n, num_shards)
        assert [s.index for s in shards] == list(range(len(shards)))
        total = 0
        leaves = []
        for shard in shards:
            assert shard.start == total
            total += shard.leaves
            for batch in rgs_mod.iter_leaf_batches(n, shard.codes, shard.maxes):
                leaves.extend(tuple(int(d) for d in row) for row in batch.codes)
        assert total == rgs_mod.bell_number(n)
        assert leaves == list(rgs_mod.rgs_reference(n))


class TestSpaceEngine:
    """The vectorized Definition 48 screen vs. the per-partition
    reference checker."""

    def test_engine_agrees_with_reference_on_qvc(self):
        """Every 2-copy partition of q_vc, both ways: the engine's
        certificate set must be exactly the partitions the serial
        checker certifies."""
        space = PartitionSpace(q_vc, 2)
        expected = set()
        constants = [(tag, v) for tag in range(2) for v in sorted(q_vc.variables())]
        from repro.ijp.search import _merge_copies

        for partition in set_partitions(constants):
            db = _merge_copies(q_vc, 2, partition)
            if find_ijp_pair(db, q_vc) is not None:
                expected.add(rgs_mod.rgs_from_partition(partition, space.items))
        result = sweep_space(q_vc, 2)
        assert {c.rgs for c in result.certificates} == expected
        assert result.stats.covered == rgs_mod.bell_number(4)

    def test_pruning_is_sound_on_qACconf(self):
        """Pruned and unpruned sweeps find identical certificates and
        cover the same space; the prune rules actually fire here."""
        with_prune = sweep_space(q_ACconf, 2, prune=True)
        without = sweep_space(q_ACconf, 2, prune=False)
        assert with_prune.stats.pruned > 0
        assert without.stats.pruned == 0
        assert with_prune.stats.covered == without.stats.covered
        assert [c.sort_key() for c in with_prune.certificates] == [
            c.sort_key() for c in without.certificates
        ]

    def test_certificate_rebuilds_and_rechecks(self):
        result = sweep_space(q_ACconf, 2)
        assert result.certificates
        cert = result.certificates[0]
        db = cert.database(q_ACconf)
        report = check_ijp(db, q_ACconf, *cert.pair)
        assert report.is_ijp
        assert report.resilience == cert.resilience
        # The known degenerate shape: reflexive endpoints.
        assert not certificate_is_proper(cert)

    def test_budget_counts_covered_partitions(self):
        result = sweep_space(q_chain, 2, budget=10)
        assert result.stats.covered <= 10
        assert not result.stats.exhausted

    def test_content_key_is_stable_and_discriminating(self):
        result = sweep_space(q_ACconf, 2)
        keys = {c.content_key(q_ACconf) for c in result.certificates}
        assert len(keys) == len(result.certificates)
        again = sweep_space(q_ACconf, 2)
        assert keys == {c.content_key(q_ACconf) for c in again.certificates}

    def test_engine_search_agrees_with_reference_search(self):
        """The rewired ijp_search and the recursive baseline agree on
        found-vs-empty for a PTIME/NP-complete/degenerate mix."""
        from repro.query.zoo import q_AC3conf, q_z3

        for query, kwargs in [
            (q_chain, dict(max_joins=2)),
            (q_z3, dict(max_joins=2, partition_budget=20000)),
            (q_AC3conf, dict(max_joins=2, partition_budget=20000)),
        ]:
            fast = ijp_search(query, **kwargs)
            slow = ijp_search_reference(query, **kwargs)
            assert (fast is None) == (slow is None)


class TestSweep:
    """The sharded, resumable, distributed layer."""

    def test_budget_allocation_is_a_lex_prefix(self):
        shards = rgs_mod.shard_space(9, 8)
        budgets = allocate_budgets(shards, 5000)
        assert sum(budgets) == 5000
        # Earlier shards fill completely before later ones get anything.
        tail = [b for b in budgets if b < shards[budgets.index(b)].leaves]
        assert all(b == 0 for b in budgets[budgets.index(tail[0]) + 1 :])
        assert allocate_budgets(shards, None) == [None] * len(shards)

    def test_default_shard_count_is_worker_independent(self):
        assert default_shard_count(6) == 1
        assert default_shard_count(9) == rgs_mod.bell_number(9) // 1024

    def test_parallel_sweep_is_bit_identical_to_serial(self, tmp_path):
        serial = sweep_range(q_triangle, 3, budget=4000)
        parallel = sweep_range(q_triangle, 3, budget=4000, workers=2)
        assert serial.shards == parallel.shards
        assert serial.stats.to_dict() == parallel.stats.to_dict()
        assert [c.sort_key() for c in serial.certificates] == [
            c.sort_key() for c in parallel.certificates
        ]
        assert [m.sort_key() for m in serial.near_misses] == [
            m.sort_key() for m in parallel.near_misses
        ]

    def test_resume_replays_checkpoints_without_recomputing(self, tmp_path):
        cold = sweep_range(q_triangle, 3, budget=4000, cache_dir=tmp_path)
        assert cold.shards_resumed == 0
        warm = sweep_range(q_triangle, 3, budget=4000, cache_dir=tmp_path)
        # Every shard with a nonzero budget slice resumes from disk.
        assert warm.shards_resumed == sum(
            1
            for b in allocate_budgets(
                rgs_mod.shard_space(9, default_shard_count(9)), 4000
            )
            if b
        )
        assert warm.stats.to_dict() == cold.stats.to_dict()
        assert [c.sort_key() for c in warm.certificates] == [
            c.sort_key() for c in cold.certificates
        ]
        assert warm.seconds < cold.seconds

    def test_no_resume_recomputes(self, tmp_path):
        sweep_range(q_ACconf, 2, cache_dir=tmp_path)
        again = sweep_range(q_ACconf, 2, cache_dir=tmp_path, resume=False)
        assert again.shards_resumed == 0

    def test_certificates_stored_content_addressed(self, tmp_path):
        from repro.witness.cache import ResultCache

        result = sweep_range(q_ACconf, 2, cache_dir=tmp_path)
        assert result.certificates
        cache = ResultCache(tmp_path)
        for cert in result.certificates:
            stored = cache.get(cert.content_key(q_ACconf))
            assert stored == cert

    def test_sweep_report_table_and_json(self):
        report = sweep([("q_ACconf", q_ACconf)], copies=2)
        rows = report.table()
        assert len(rows) == 1
        assert rows[0]["query"] == "q_ACconf"
        assert rows[0]["first_certificate_k"] == 2
        assert rows[0]["exhausted"]
        payload = report.to_dict()
        assert payload["sweep_schema"] >= 1
        assert payload["table"] == rows
        assert "q_ACconf" in report.render()

    def test_budgeted_sweep_is_prefix_of_full(self):
        full = sweep_range(q_ACconf, 2)
        cut = sweep_range(q_ACconf, 2, budget=150)
        assert not cut.stats.exhausted
        assert cut.stats.covered <= 150
        full_keys = [c.sort_key() for c in full.certificates]
        cut_keys = [c.sort_key() for c in cut.certificates]
        assert cut_keys == full_keys[: len(cut_keys)]

    def test_open_query_population_matches_the_zoo(self):
        from repro.query.zoo import PAPER_VERDICTS

        open_names = {n for n, v in PAPER_VERDICTS.items() if v == "OPEN"}
        assert set(OPEN_QUERIES) == open_names
        assert set(OPEN_QUERY_STATUS) == open_names

    def test_random_queries_extend_the_standing_population(self):
        from repro.ijp.sweep import standing_queries

        population = standing_queries(random_queries=3, seed=11)
        assert len(population) == len(OPEN_QUERIES) + 3
        again = standing_queries(random_queries=3, seed=11)
        assert [(n, repr(q)) for n, q in population] == [
            (n, repr(q)) for n, q in again
        ]
