"""mixed_moment against the q-Fock field of Bozejko-Speicher (CMP 137, 1991).

On the full Fock space over Q^d, with a*(f) xi = f (x) xi and
a(f)(g_1 (x) ... (x) g_k) = sum_m q^(m-1) <f, g_m> g_1 (x) ..^g_m.. (x) g_k,
the vacuum moment of G(f_1) ... G(f_2n), G(f) = a(f) + a*(f), is
sum_V q^cr(V) prod <f_i, f_j> over the pair partitions V of {1..2n}: that
is ``mixed_moment(CrossingPower(q), <Gram matrix of the f_i>)``.  The field
acts on words of basis indices with Fraction coefficients and reads nothing
of the pair enumeration, so it shares no code with what it pins.
"""

import random
from fractions import Fraction

import pytest

from pairmoments.moments import GramMatrix, mixed_moment
from pairmoments.weights import Constant1, CrossingPower


def fock_moment(q, vectors):
    # <vacuum, G(f_1) ... G(f_k) vacuum>, the operators applied right to left;
    # a word longer than the operators still to act cannot reach the vacuum
    state = {(): Fraction(1)}
    for left, f in enumerate(reversed(vectors)):
        ahead = len(vectors) - left - 1
        out = {}
        for word, c in state.items():
            if len(word) < ahead:  # creation
                for i, fi in enumerate(f):
                    if fi:
                        out[(i,) + word] = out.get((i,) + word, 0) + c * fi
            weight = c  # annihilation, q^(m-1) <f, e_(word[m])>
            for m, i in enumerate(word):
                if f[i] and weight:
                    rest = word[:m] + word[m + 1:]
                    out[rest] = out.get(rest, 0) + weight * f[i]
                weight *= q
        state = {w: c for w, c in out.items() if c}
    return state.get((), 0)


def _vectors(n, seed):
    # 2n rational vectors of Q^2 spanning it (rank 2)
    rng = random.Random(seed)
    while True:
        rows = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
                for _ in range(2 * n)]
        if any(a * d != b * c for (a, b) in rows for (c, d) in rows):
            return rows


def _gram(rows):
    return GramMatrix.from_rows([[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows])


QS = [-1, Fraction(-1, 2), 0, Fraction(1, 3), 1]


def test_one_mode_by_hand():
    # d = 1, f = 1: q-Gaussian moments 1, 2 + q, 5 + 6q + 3q^2 + q^3
    q = Fraction(1, 3)
    assert [fock_moment(q, [(1,)] * (2 * n)) for n in (1, 2, 3)] == [
        1, 2 + q, 5 + 6 * q + 3 * q ** 2 + q ** 3]
    assert fock_moment(q, [(1,)] * 5) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_mixed_moment_is_the_vacuum_moment(n):
    rows = _vectors(n, seed=n)
    gram = _gram(rows)
    for q in QS:
        assert mixed_moment(CrossingPower(q), gram) == fock_moment(q, rows), q
    # at q = 1 every pair partition weighs 1
    assert mixed_moment(Constant1(), gram) == fock_moment(1, rows)
