"""Test-local oracle for `FiniteGroup.validate`: the same checks in the same
order, with associativity proven by the full O(N^3) scan of every triple in
lexicographic order instead of Light's test on a generating set.  No
inverse check: every Latin row holds the identity."""

from itertools import product


def full_scan_verdict(group) -> str | None:
    """None for a group table, else the message `validate` must raise."""
    n, t, e = group.order, group.table, group.identity
    if len(t) != n or any(len(r) != n for r in t):
        return "multiplication table is not square of the declared order"
    full = set(range(n))
    for i, row in enumerate(t):
        if set(row) != full:
            return f"row {i} is not a permutation (Latin square fails)"
    for j in range(n):
        if {t[i][j] for i in range(n)} != full:
            return f"column {j} is not a permutation (Latin square fails)"
    if isinstance(e, bool) or not isinstance(e, int) or e not in range(n):
        return f"declared identity {e!r} is not an element 0..{n - 1}"
    for a in range(n):
        if t[e][a] != a or t[a][e] != a:
            return f"declared identity {e} does not act as identity on {a}"
    for a, b, c in product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return f"associativity fails on triple ({a}, {b}, {c})"
    return None


def assert_validate_matches_full_scan(group) -> str | None:
    """Run `group.validate()` and require the oracle's verdict and message."""
    try:
        group.validate()
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == full_scan_verdict(group), (group.name, got)
    return got
