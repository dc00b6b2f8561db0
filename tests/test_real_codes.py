"""Real stabilizer codes as exact fixtures: the five-qubit, Steane and Shor codes.

Each code's enumerators are computed here from its generators, by brute
force over Paulis packed into two n-bit masks (x part, z part), with no
help from the package:

- A_i counts the stabilizer group, all 2^(n-k) products of generators,
  by weight;
- B_i counts every Pauli that commutes with each generator.

The package is then asked the paper's questions about them.  Shor's
[[9,1,3]] code is impure (A_2 = 9 at d = 3), yet its distribution still
agrees with its dual on {0..d-1}, which is all the witness needs.
"""
import pytest

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
    # P commutes with g iff parity(x & g_z) == parity(z & g_x): match the two syndromes.
    by_x, by_z = {}, {}
    for v in range(1 << n):
        by_x.setdefault(sum(((v & gz).bit_count() & 1) << j for j, (_, gz) in enumerate(gens)),
                        []).append(v)
        by_z.setdefault(sum(((v & gx).bit_count() & 1) << j for j, (gx, _) in enumerate(gens)),
                        []).append(v)
    B = [0] * (n + 1)
    for syndrome, xs in by_x.items():
        for x in xs:
            for z in by_z.get(syndrome, ()):
                B[(x | z).bit_count()] += 1
    return tuple(A), tuple(B)


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
