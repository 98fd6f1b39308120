"""Reference for the exact spectrum's division recurrence in `spectra`.

`divide` is the closure and recurrence of `spectra._divide` on tuples: a
breadth-first closure that builds every frequency vector from each of its
predecessors and values it on each visit, a sort by (value, vector), and a
recurrence whose predecessor lookups are tuples too.  `_divide` runs on
integer keys; the tests require the two to agree bit for bit.  The file
name keeps pytest from collecting it.
"""

from crystalsum.freqalg import ExpSum
from crystalsum.spectra import MAX_SPECTRUM_ATOMS, SpectrumError


def divide(p: ExpSum, g: ExpSum, cutoff_value: float) -> dict:
    """Terms of p/(1-g) with frequency at most cutoff_value, as a plain dict.

    Every frequency of g is positive, so the equation (1-g)·out = p is
    triangular in ascending frequency: out(v) = p(v) + sum_u g(u) out(v-u)
    over u in supp g, where each v-u precedes v.  The support is the
    closure of supp p under +supp g, kept at or below the cutoff with the
    tolerance `ExpSum.truncate` uses; a closure of more than
    MAX_SPECTRUM_ATOMS frequencies raises before any coefficient is formed.
    """
    basis = p.basis
    limit = cutoff_value + 1e-12
    steps = [(u, c) for u, _, c in g.sorted_terms()]
    value = {v: val for v, val, _ in p.sorted_terms()}
    frontier = list(value)
    while frontier:
        reached = []
        for v in frontier:
            for u, _ in steps:
                w = tuple(a + b for a, b in zip(v, u))
                if w not in value:
                    val = basis.value(w)
                    if val <= limit:
                        value[w] = val
                        reached.append(w)
                        if len(value) > MAX_SPECTRUM_ATOMS:
                            raise SpectrumError(
                                f"cutoff {cutoff_value:g} needs more than the "
                                f"{MAX_SPECTRUM_ATOMS} spectrum atoms allowed")
        frontier = reached
    pv = p.terms
    out = {}
    for v in sorted(value, key=lambda v: (value[v], v)):
        acc = pv.get(v, 0j)
        for u, c in steps:
            prev = out.get(tuple(a - b for a, b in zip(v, u)))
            if prev is not None:
                acc += c * prev
        out[v] = acc
    return out
