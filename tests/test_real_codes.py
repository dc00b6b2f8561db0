"""Real stabilizer codes as exact fixtures: the five-qubit, Steane, Shor and [[5,1,3]]_3 codes.

Each code's enumerators are computed here from its generators, by brute
force with no help from the package: over Paulis packed into two n-bit
masks (x part, z part) for the qubit codes, and over exponent vectors
of X^a Z^b on each qutrit for the m = 3 code:

- A_i counts the stabilizer group, all m^(n-k) products of generators,
  by weight;
- B_i counts every Pauli that commutes with each generator;
- the shadow counts every Pauli that anticommutes with exactly the
  generators of odd weight (Rains).

The package is then asked the paper's questions about them, and its
``check`` command reads each code's parameters.  Shor's [[9,1,3]] code
is impure (A_2 = 9 at d = 3), yet its distribution still agrees with
its dual on {0..d-1}, which is all the witness needs.
"""
from fractions import Fraction
from itertools import product

import pytest
from click.testing import CliRunner

from qhamming.cli import main

from qhamming.enumerators import mw_forward, mw_inverse
from qhamming.hamming_witness import hamming_rhs, witness_coeffs
from qhamming.lp_bound import dimension_bound

from oracles import distribution

# name: (generators, A, B), every code with k = 1 and d = 3.
CODES = {
    "five-qubit": (
        "XZZXI IXZZX XIXZZ ZXIXZ",
        (1, 0, 0, 0, 15, 0),
        (1, 0, 0, 30, 15, 18),
    ),
    "steane": (
        "IIIXXXX IXXIIXX XIXIXIX IIIZZZZ IZZIIZZ ZIZIZIZ",
        (1, 0, 0, 0, 21, 0, 42, 0),
        (1, 0, 0, 21, 21, 126, 42, 45),
    ),
    "shor": (
        "ZZIIIIIII IZZIIIIII IIIZZIIII IIIIZZIII IIIIIIZZI IIIIIIIZZ XXXXXXIII IIIXXXXXX",
        (1, 0, 9, 0, 27, 0, 75, 0, 144, 0),
        (1, 0, 9, 39, 27, 207, 75, 333, 144, 189),
    ),
}
K, D, M = 2, 3, 2


def pauli(word):
    """``(x, z)``: bit j of x (of z) is set when qubit j carries X or Y (Z or Y)."""
    x = sum(1 << j for j, c in enumerate(word) if c in "XY")
    z = sum(1 << j for j, c in enumerate(word) if c in "ZY")
    return x, z


def anticommute(a, b):
    """The symplectic product of two Paulis: 1 when they anticommute."""
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1


def enumerators(words):
    """``(A, B)`` of the stabilizer code that ``words`` generate."""
    n, gens = len(words[0]), [pauli(w) for w in words]
    assert not any(anticommute(g, h) for g in gens for h in gens), "generators must commute"
    group = set()
    for subset in range(1 << len(gens)):
        x = z = 0
        for j, (gx, gz) in enumerate(gens):
            if subset >> j & 1:
                x, z = x ^ gx, z ^ gz
        group.add((x, z))
    assert len(group) == 1 << len(gens), "generators must be independent"
    A = [0] * (n + 1)
    for x, z in group:
        A[(x | z).bit_count()] += 1
    return tuple(A), coset_weights(n, gens, 0)


def coset_weights(n, gens, flips):
    """Weights of the Paulis that anticommute with exactly the generators in the mask ``flips``."""
    # P anticommutes with g iff parity(x & g_z) != parity(z & g_x): match the two syndromes.
    by_x, by_z = {}, {}
    for v in range(1 << n):
        by_x.setdefault(sum(((v & gz).bit_count() & 1) << j for j, (_, gz) in enumerate(gens)),
                        []).append(v)
        by_z.setdefault(sum(((v & gx).bit_count() & 1) << j for j, (gx, _) in enumerate(gens)),
                        []).append(v)
    counts = [0] * (n + 1)
    for syndrome, xs in by_x.items():
        for x in xs:
            for z in by_z.get(syndrome ^ flips, ()):
                counts[(x | z).bit_count()] += 1
    return tuple(counts)


def shadow(words):
    """Rains' shadow: the Paulis that anticommute with a generator iff its weight is odd.

    Weight parity is additive over commuting Paulis, so the generators
    decide it for the whole stabilizer group.
    """
    gens = [pauli(w) for w in words]
    odd = sum(((x | z).bit_count() & 1) << j for j, (x, z) in enumerate(gens))
    return coset_weights(len(words[0]), gens, odd)


def weights(A):
    return distribution(len(A) - 1, M, K, A)


@pytest.fixture(scope="module", params=sorted(CODES))
def code(request):
    words, A, B = CODES[request.param]
    return request.param, words.split(), A, B


def test_enumerators_from_generators(code):
    _, words, A, B = code
    assert enumerators(words) == (A, B)


def test_generators_that_do_not_commute_are_refused():
    with pytest.raises(AssertionError, match="commute"):
        enumerators(["ZZZII", "IIZZZ", "XXXXX"])


def test_macwilliams_pair(code):
    _, _, A, B = code
    assert mw_forward(weights(A)) == weights(B)
    assert mw_inverse(weights(B)) == weights(A)


def test_shadow_is_the_transform_of_the_signed_distribution(code):
    # Every generator has even weight, so the shadow is the normalizer B.
    _, words, A, B = code
    n = len(A) - 1
    signed = distribution(n, M, K, [(-1) ** r * a for r, a in enumerate(A)])
    assert mw_forward(signed) == weights(shadow(words)) == weights(B)


def test_shadow_of_an_odd_weight_stabilizer():
    # [[3,2,1]] with stabilizer ZZZ: A = (1, 0, 0, 1) and K = 4
    signed = distribution(3, M, 4, (1, 0, 0, -1))
    expected = (0, 6, 12, 14)
    assert shadow(["ZZZ"]) == expected != enumerators(["ZZZ"])[1]
    assert mw_forward(signed) == distribution(3, M, 4, expected)


def test_dual_agrees_below_the_distance(code):
    name, _, A, B = code
    assert next(i for i, (a, b) in enumerate(zip(A, B)) if a != b) == D
    assert A[:D] == B[:D]
    assert (A[2] > 0) == (name == "shor")  # Shor's code is impure


def test_witness_bound_is_the_hamming_bound(code):
    name, _, A, _ = code
    n = len(A) - 1
    bound = dimension_bound(*witness_coeffs(n, D, M)).bound
    assert bound == hamming_rhs(n, D, M) >= K
    assert (bound == K) == (name == "five-qubit")


# [[5,1,3]]_3: X Z Z^2 X^2 I and its three cyclic shifts, each qutrit as
# the exponents (a, b) of X^a Z^b over Z_3.
QUTRIT_GENERATOR = ((1, 0), (0, 1), (0, 2), (2, 0), (0, 0))
QUTRIT_A = (1, 0, 0, 0, 40, 40)
QUTRIT_B = (1, 0, 0, 80, 240, 408)
QUTRIT_K = 3


def symplectic(p, q):
    """The symplectic form mod 3 of two qutrit Paulis: 0 when they commute."""
    return sum(a * bb - b * aa for (a, b), (aa, bb) in zip(p, q)) % 3


def qutrit_enumerators(generator):
    """``(A, B)`` of the qutrit code that ``generator`` and its cyclic shifts generate."""
    n = len(generator)
    gens = [generator[-s:] + generator[:-s] for s in range(n - 1)]
    assert not any(symplectic(g, h) for g in gens for h in gens), "generators must commute"
    group = {tuple((sum(c * g[j][0] for c, g in zip(cs, gens)) % 3,
                    sum(c * g[j][1] for c, g in zip(cs, gens)) % 3) for j in range(n))
             for cs in product(range(3), repeat=len(gens))}
    assert len(group) == 3 ** len(gens) == 81, "generators must be independent"
    A, B = [0] * (n + 1), [0] * (n + 1)
    for p in group:
        A[sum(e != (0, 0) for e in p)] += 1
    for p in product(product(range(3), repeat=2), repeat=n):
        if not any(symplectic(p, g) for g in gens):
            B[sum(e != (0, 0) for e in p)] += 1
    return tuple(A), tuple(B)


def test_qutrit_code_enumerators():
    A, B = qutrit_enumerators(QUTRIT_GENERATOR)
    assert (A, B) == (QUTRIT_A, QUTRIT_B)
    forward, back = (distribution(5, 3, QUTRIT_K, E) for E in (A, B))
    assert mw_forward(forward) == back
    assert mw_inverse(back) == forward
    assert next(i for i, (a, b) in enumerate(zip(A, B)) if a != b) == D


def test_qutrit_witness_bound_is_the_hamming_bound():
    bound = dimension_bound(*witness_coeffs(5, D, 3)).bound
    assert bound == hamming_rhs(5, D, 3) == Fraction(243, 41) >= QUTRIT_K


# (n, K, m, the Hamming verdict, N(3, m)) of each code above.
CHECKS = {
    "five-qubit": (5, 2, 2, "satisfied with equality", 5),
    "steane": (7, 2, 2, "satisfied", 5),
    "shor": (9, 2, 2, "satisfied", 5),
    "qutrit": (5, 3, 3, "satisfied", 4),
}


@pytest.mark.parametrize("name", CHECKS)
def test_check_reads_each_code(name):
    n, dim, m, verdict, N = CHECKS[name]
    args = ["check", "--n", str(n), "--K", str(dim), "--d", str(D), "--m", str(m)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert f"hamming: {verdict}" in lines
    assert lines[5].startswith(f"threshold N = {N} ")
    assert lines[6].startswith("n >= N: yes;")
