"""The shared hitting-set search against subset enumeration.

``repro.resilience.approx._budgeted_bnb`` is the one search behind the
exact tier, the anytime tier, the incremental session and (through its
int-mask core) IJP's condition-5 prescreen.  It branches
by exclusion (child *i* takes the target row's *i*-th tuple and forbids
the earlier ones) and unit-propagates, and when a node budget cuts it
short it still certifies a lower bound from the abandoned subtrees.
This module checks those claims against ground truth that shares no
code with the engine: the minimum is found by enumerating every subset
of the (at most 12) tuples.

For every form of the search — the bitmask search, its frozenset
mirror, and the cost-weighted frozenset search — and every node limit:

* the incumbent hits every row;
* ``lower <= optimum <= cost(incumbent)``;
* ``completed`` implies ``lower == cost(incumbent) == optimum``.

The condition-5 prescreen's entry (:func:`repro.ijp.space._hitting_number`)
seeds the mask core its own way and runs it without a budget, on row
lists that may be empty or repeat rows; its value must be the optimum.
"""

import random
from itertools import combinations

from hypothesis import example, given, strategies as st

from repro.ijp.space import _hitting_number
from repro.resilience.approx import (
    _BudgetMeter,
    _budgeted_bnb,
    _budgeted_bnb_bitset,
    _budgeted_bnb_reference,
    greedy_hitting_set,
)
from repro.resilience.types import Budget


def _cost(ids, costs):
    return len(ids) if costs is None else sum(costs[t] for t in ids)


def brute_force_minimum(sets, costs):
    """The least cost of a subset of the tuples that meets every row."""
    universe = sorted(set().union(*sets))
    best = None
    for size in range(len(universe) + 1):
        for subset in combinations(universe, size):
            chosen = set(subset)
            if all(row & chosen for row in sets):
                cost = _cost(chosen, costs)
                if best is None or cost < best:
                    best = cost
        if best is not None and costs is None:
            return best  # no larger subset is cheaper
    return best


def _random_system(seed):
    """Rows over 4-12 sparse tuple ids, with unit (None) or skewed
    costs.  Drawn from a seed, so examples are typical random instances
    rather than shrunk-to-trivial ones, and dense (one to three rows per
    tuple), so optima often need several tuples of one row.  A quarter
    of them get a one-tuple row, which the search takes at its root."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    ids = rng.sample(range(3 * n + 1), n)
    sets = [
        frozenset(rng.sample(ids, rng.choice((2, 2, 3, 3, 4))))
        for _ in range(rng.randint(n, 3 * n))
    ]
    if rng.random() < 0.25:
        sets.append(frozenset([rng.choice(ids)]))
    if rng.random() < 0.5:
        return sets, None
    universe = sorted(set().union(*sets))
    return sets, {t: rng.choice((1, 1, 2, 3, 5, 8, 13, 40)) for t in universe}


set_systems = st.integers(min_value=0, max_value=10**6).map(_random_system)

# Tiny instances complete in a handful of nodes, so small limits are
# where the certified lower bound of abandoned subtrees is exercised.
node_limits = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=200),
)


def _searches(sets, costs):
    """Every form of the search that applies to the instance."""
    universe = sorted(set().union(*sets))
    forms = [
        ("dispatch", lambda seed, meter: _budgeted_bnb(sets, seed, meter, costs)),
        (
            "frozenset",
            lambda seed, meter: _budgeted_bnb_reference(sets, seed, meter, costs),
        ),
    ]
    if costs is None:
        forms.append(
            (
                "bitset",
                lambda seed, meter: _budgeted_bnb_bitset(
                    sets, seed, meter, universe
                ),
            )
        )
    return forms


@given(set_systems, node_limits, st.booleans())
def test_search_against_brute_force(system, node_limit, greedy_seed):
    sets, costs = system
    optimum = brute_force_minimum(sets, costs)
    # The greedy seed is the production one; the whole universe is a
    # poor incumbent that makes the search (and its budget) do the work.
    seed = (
        greedy_hitting_set(sets, costs=costs)
        if greedy_seed
        else set().union(*sets)
    )
    for name, search in _searches(sets, costs):
        meter = _BudgetMeter(Budget(node_limit=node_limit))
        lower, incumbent, completed = search(set(seed), meter)
        assert all(row & incumbent for row in sets), name
        assert lower <= optimum <= _cost(incumbent, costs), name
        if completed:
            assert lower == _cost(incumbent, costs) == optimum, name
        if node_limit is None:
            assert completed, name


@given(set_systems, st.integers(min_value=0), st.booleans())
@example(_random_system(0), 0, False)  # no rows
def test_ijp_hitting_number_against_brute_force(system, cut, repeat):
    """A prefix of the rows (none at all when ``cut`` is a multiple of
    ``len(sets) + 1``), with every other row repeated at the end when
    ``repeat`` is set, as int masks."""
    sets, _ = system
    rows = sets[: cut % (len(sets) + 1)]
    if repeat:
        rows = rows + rows[::2]
    universe = sorted(set().union(*rows))
    bit_of = {t: 1 << i for i, t in enumerate(universe)}
    masks = [sum(bit_of[t] for t in row) for row in rows]
    meter = _BudgetMeter(Budget())
    assert _hitting_number(masks, meter) == brute_force_minimum(rows, None)
