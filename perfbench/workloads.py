"""The in-process workloads: their inputs, their timed requests and their correctness references.

A workload is a list of windows `(label, presented, function, n_max)`.  The
cold pass asks for `function(n)` for n = 1..n_max, one value at a time and
in window order.  The warm pass then runs `defect_report` over the same
windows, with the memos the cold pass filled.

No reference below is computed by the production Koszul-block path:

* golden-reg: values recorded from the engine and confirmed on the
  bidegree-matrix path (`betti_bidegree`): for every value r there is a
  nonzero beta_{i,i+r} and every beta_{i,i+r+1} vanishes.  reg_power n=1 is
  13, not the packaged golden 11 (see test_criterion_1_analysis);
  reg_quotient for n <= 5 is the paper's printed table minus one.
* sdeg-windows: the closed forms sdeg = 3n + r - 1 (ehl), sdeg = 2 for
  n <= t (cycle), and the paper's m2_sdeg tuple.
* corpus: properties that tie independent routes together (the exact
  sequence 0 -> I^(n-1)/I^n -> R/I^n -> R/I^(n-1) -> 0, and
  sdeg = reg_quotient + 1 when dim R/I = 0), plus a seeded sample checked
  on the bidegree-matrix path outside the timed region.
"""
from __future__ import annotations

import random

from regpow import FamilySpec, Subquotient, betti_bidegree, build, hilbert

import corpus

NEG_INF = float("-inf")

GOLDEN = {
    "reg_power": (13, 14, 15, 14, 15, 18),
    "reg_quotient": (10, 13, 14, 13, 14, 17),
    "reg_diff": (10, 13, 14, 15, 14, 17),
}
M2_SDEG = (15, 19, 18, 24, 30)
EHL_R, EHL_N = 3, 3
CYCLE_T, CYCLE_N = 3, 2
CROSSCHECK_CASES = 4
CROSSCHECK_MAX_HILBERT = 8


def golden_reg(seed):
    presented = build(FamilySpec("m2_reg"))
    return [("m2_reg", presented, fn, len(ref)) for fn, ref in GOLDEN.items()]


def sdeg_windows(seed):
    return [
        ("ehl", build(FamilySpec("ehl", r=EHL_R)), "sdeg", EHL_N),
        ("cycle", build(FamilySpec("cycle", t=CYCLE_T)), "sdeg", CYCLE_N),
        ("m2_sdeg", build(FamilySpec("m2_sdeg")), "sdeg", len(M2_SDEG)),
    ]


def corpus_windows(seed):
    windows = []
    for k, presented in enumerate(corpus.generate(seed)):
        for fn in ("reg_quotient", "reg_diff", "sdeg"):
            windows.append((f"case{k}", presented, fn, corpus.N_MAX))
    return windows


INPUTS = {"golden-reg": golden_reg, "sdeg-windows": sdeg_windows, "corpus": corpus_windows}


def _reference(label: str, fn: str, n: int):
    if label == "m2_reg":
        return GOLDEN[fn][n - 1]
    if label == "ehl":
        return 3 * n + EHL_R - 1
    if label == "cycle":
        return 2
    if label == "m2_sdeg":
        return M2_SDEG[n - 1]
    return None


def _starts(windows) -> dict:
    """(label, function) -> (presented, index of its n = 1 value in the flat value list)."""
    starts = {}
    i = 0
    for label, presented, fn, n_max in windows:
        starts[(label, fn)] = (presented, i)
        i += n_max
    return starts


def check_references(windows, values) -> list:
    """Indices of values that differ from their recorded or closed-form reference."""
    bad = []
    i = 0
    for label, _, fn, n_max in windows:
        for n in range(1, n_max + 1):
            ref = _reference(label, fn, n)
            if ref is not None and values[i] != ref:
                bad.append(i)
            i += 1
    return bad


def check_corpus_properties(windows, values) -> list:
    """Indices of values that break the exact-sequence or the dim-0 sdeg property."""
    bad = set()
    starts = _starts(windows)
    for (label, fn), (presented, q0) in starts.items():
        if fn != "reg_quotient":
            continue
        d0 = starts[(label, "reg_diff")][1]
        s0 = starts[(label, "sdeg")][1]

        def q(n):
            return values[q0 + n - 1]

        def d(n):
            return values[d0 + n - 1]

        if d(1) != q(1):  # I^0/I^1 = R/I
            bad.update((q0, d0))
        for n in range(2, corpus.N_MAX + 1):
            # 0 -> A = I^(n-1)/I^n -> B = R/I^n -> C = R/I^(n-1) -> 0
            a, b, c = d(n), q(n), q(n - 1)
            if b > max(a, c) or a > max(b, c + 1) or c > max(a - 1, b):
                bad.update((d0 + n - 1, q0 + n - 1, q0 + n - 2))
        if presented.dim_quotient_by_ideal() == 0:
            for n in range(1, corpus.N_MAX + 1):
                if values[s0 + n - 1] != q(n) + 1:
                    bad.update((s0 + n - 1, q0 + n - 1))
    return sorted(bad)


def _window(module: Subquotient) -> int:
    """Top degree j the Koszul homology of the module can reach: lcm-box degree plus nvars."""
    box = [max(a, b) for a, b in zip(module.numerator.lcm_exponents(), module.denominator.lcm_exponents())]
    return max(sum(box), 1) + module.ring.nvars


def bidegree_regularity(module: Subquotient):
    """Regularity from the bidegree-matrix path alone, over the whole degree window."""
    nv = module.ring.nvars
    reg = NEG_INF
    for i in range(nv + 1):
        for j in range(i, _window(module) + 1):
            if j - i > reg and betti_bidegree(module, i, j):
                reg = j - i
    return reg


def crosscheck_sample(windows, values, seed) -> list:
    """Indices of reg_quotient/reg_diff values of a seeded case sample that the bidegree path disputes.

    The dense bidegree matrices grow with the Hilbert function, so the sample
    is drawn from cases whose modules have at most CROSSCHECK_MAX_HILBERT
    monomials in every degree of the window; dimension-one cases qualify,
    so the Betti-table path is covered as well as the Artinian one.
    """
    starts = _starts(windows)
    labels = sorted({label for label, _ in starts}, key=lambda s: int(s[4:]))
    random.Random(seed).shuffle(labels)
    bad, checked = [], 0
    for label in labels:
        presented = starts[(label, "reg_quotient")][0]
        kinds = (("reg_quotient", "quotient"), ("reg_diff", "diff"))
        modules = {(fn, n): presented.module_of(kind, n) for fn, kind in kinds for n in range(1, corpus.N_MAX + 1)}
        if any(hilbert(m, a) > CROSSCHECK_MAX_HILBERT for m in modules.values() for a in range(_window(m) + 1)):
            continue
        for (fn, n), module in modules.items():
            index = starts[(label, fn)][1] + n - 1
            if bidegree_regularity(module) != values[index]:
                bad.append(index)
        checked += 1
        if checked == CROSSCHECK_CASES:
            break
    return bad
