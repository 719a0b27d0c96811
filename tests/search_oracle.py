"""Reference enumeration for the multi-flow attack's one search.

Every per-flow offset assignment is tried in lexicographic order of offset
index until the flows share a window under it.  The branch-and-bound search
behind every attack method must find the same first hit, and the
``exhaustive`` method must report this enumeration's count.  Windows and
their intersection come from ``flowmark.mfa``; the scalar reference in
test_mfa checks those.
"""

import itertools

from flowmark.mfa import _intersect, _min_units, _window_lists


def enumerate_assignments(flows, cfg, offsets):
    """Assignments tried up to the first hit, its (start, length) window and its offsets.

    When no assignment hits, the count is len(offsets) ** len(flows) and
    the window and offsets are None.
    """
    lists = _window_lists(flows, cfg, offsets)
    min_units = _min_units(cfg)
    tried = 0
    for assignment in itertools.product(range(len(offsets)), repeat=len(flows)):
        tried += 1
        common = lists[0][assignment[0]]
        for fi in range(1, len(flows)):
            if not common:
                break
            common = _intersect(common, lists[fi][assignment[fi]], min_units)
        if common:
            lo, hi = common[0]
            window = (lo * cfg.quantum, (hi - lo) * cfg.quantum)
            return tried, window, tuple(offsets[i] for i in assignment)
    return tried, None, None


def assert_is_the_enumeration(finding, flows, cfg, offsets, *, counted: bool) -> None:
    """finding's window and offsets are the enumeration's first hit.

    Its count equals the enumeration's when counted, else it is no larger.
    """
    tried, window, assignment = enumerate_assignments(flows, cfg, offsets)
    assert finding.present == (window is not None)
    assert finding.matched_window == window
    assert finding.offset_assignment == assignment
    if counted:
        assert finding.configurations_searched == tried
    else:
        assert finding.configurations_searched <= tried
