"""The engine's former socle search on exponent tuples, kept as the oracle of the packed search.

`socle_top` is `regpow.monomials._socle_top` as it ran on tuples: the same
pivot splits, bound and leaf filters (their proofs are in the docstring of
the packed search), without the corner cut.  Each J : p child is
minimalized by `_minimal` over the lowered and the unchanged generators.
"""
from __future__ import annotations

from operator import le

from regpow.monomials import NEG_INF, _minimal


def pivot(gens, nvars: int) -> tuple:
    """The pivot (i, k) of a node with a non-pure generator.

    x_i is the variable in the most non-pure generators, the first on ties,
    and k the median of its positive exponents there.
    """
    mixed = [g for g in gens if g.count(0) < nvars - 1]
    columns = list(zip(*mixed))
    i = max(range(nvars), key=lambda j: len(columns[j]) - columns[j].count(0))
    exps = sorted(a for a in columns[i] if a)
    return i, exps[len(exps) // 2]


def socle_top(gens, nvars: int):
    """The largest degree of a maximal standard monomial of (gens); NEG_INF if there is none."""
    best = NEG_INF
    pure = nvars - 1  # a pure power has this many zero exponents
    stack = [(gens, (0,) * nvars, None)]
    while stack:
        gens, offset, filters = stack.pop()
        if not gens:
            continue
        lcm = list(map(max, zip(*gens)))
        if not all(lcm) or sum(offset) + sum(lcm) - nvars <= best:
            continue
        if all(g.count(0) >= pure for g in gens):  # every generator is a pure power
            u = [o + a - 1 for o, a in zip(offset, lcm)]
            while filters is not None:
                (i, edge, base, split), filters = filters
                if u[i] == edge:
                    w = [a - b for a, b in zip(u, base)]
                    w[i] += 1
                    if not any(all(map(le, g, w)) for g in split):
                        break
            else:
                best = sum(u)
            continue
        i, k = pivot(gens, nvars)
        plus = [g for g in gens if g[i] < k]
        plus.append(tuple(k if j == i else 0 for j in range(nvars)))
        stack.append((plus, offset, ((i, offset[i] + k - 1, offset, gens), filters)))
        high = [g[:i] + (g[i] - k,) + g[i + 1:] for g in gens if g[i] > k]
        low = _minimal([g[:i] + (0,) + g[i + 1:] for g in gens if g[i] <= k])
        stack.append((high + low, offset[:i] + (offset[i] + k,) + offset[i + 1:], filters))
    return best
