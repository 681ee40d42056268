"""Byte-identity guard for the verify reports that print field elements.

Check names and details spell monics and coefficients over F_4, F_8 and
F_9 as digit tuples (``at p=((0, 0), (1, 0))``, ``got ((1, 0))*om^-1``),
so these reports change whenever the element encoding or its display
does.  The digests pin the sha256 of ``serialize.canonical_dumps`` of
each report, recorded when F_{p^e} still held its elements as digit
tuples, before the int codes.

The q = 2 and q = 3 rows pin the suites whose series are memoized by
precision and borrowed by the root-of-unity contexts (generators, det,
congruence, vadic, hecke-mult-tau); they were recorded before either
change, so a cached or borrowed series that differs from a fresh build
in any coefficient shows here.  ``det`` at q = 2 runs at N = 24 to keep
the guard fast.

The rows recorded while residue-field elements were still tuples of base
codes pin the suites that compute over F_{q^d}: ``hyperderiv-hecke`` at
q = 2, 3 and 4, and ``congruence`` and ``vadic`` at q = 9, together with
one ``specialized_to_json`` artifact over F_16 = F_4[y]/(P), the first
tower over a non-prime base whose digit strings mix both F_4 digits.

The odd-q rows of ``legendre``, ``oracles`` and ``hecke-eigen`` at q = 3
and 5 pin the reports whose series inverses, Y^e divisions and zeta
ratios run the power-series recurrence on ``Poly`` coefficients; they
were recorded while ``USeries.inverse`` still ran it on GradedScalars at
odd q and ``zeta_ratio`` had a loop of its own.

With the q = 4 rows of ``det``, ``generators``, ``hecke-mult-tau``,
``properties``, ``tau-difference`` and ``weight-q2-experimental``, every
one of the 14 suites is pinned at q = 4; those six were recorded while
each suite still built its own context.

The q = 8 rows of ``hecke-eigen`` and ``specialize-petrov`` pin two suites
whose monic sums run over Frobenius orbits; they were recorded while
every monic was still solved and summed on its own.

The q = 16 rows of ``eisenstein-aexp`` and ``generators`` pin monic sums
over orbits of sizes 1, 2 and 4; they were recorded while each orbit
size's sum was still unpacked and conjugated coefficient by coefficient.

The rows of ``oracles`` at q = 2 and of ``properties``,
``eisenstein-aexp`` and ``specialize-petrov`` at q = 3 pin reports whose
checks read one shared object per suite: one coset power-sum table per
base, and one inverse of det(E1, E_q) per precision in
``structure_decompose``.  They were recorded under PYTHONHASHSEED 0 and 1
while each check still built its own table and each decomposition its
own determinant and inverse.

The ``properties`` rows at q = 5 and 9 pin fraction-heavy reports whose
twist, Leibniz and structure-theorem checks normalize thousands of
random fractions in F_q(theta, t); they were recorded while
``poly_gcd`` still read its operands through ``Poly`` dicts in every
branch, before it worked on theta-rows.

Run as a script, this file prints the DIGESTS entry of each row named on
the command line as q:suite or q:suite:N (PYTHONPATH=src).
"""

import hashlib

import pytest

from carlitz_vmf import serialize
from carlitz_vmf.context import Context
from carlitz_vmf.specialize import RootContext, eval_root_form
from carlitz_vmf.verify import run_suite
from carlitz_vmf.vmf import eis1

DIGESTS = {
    (2, "congruence", None):
        "6f9f0992a4c0090db83498f8ca296b339817ef5cd1cf117af506e5a5dcf2f4f8",
    (2, "det", 24):
        "2ab05be31733ace26df95224f61c77e6a4f3eda9248b8b8f3737ab1cab8230cf",
    (2, "generators", None):
        "91b8515eaa174e217786d787c4c069f415a394b26fe02be523f1f9ad2d5d804b",
    (2, "hecke-mult-tau", None):
        "e7c0b1344ca79c3aa9901e84c408ec3b91abc277baf8cc966c4505d62ae88dd4",
    (2, "hyperderiv-hecke", None):
        "3b3808b713ad92879238bb26f578a67fc97d08d7e1e9751893687289211b6e64",
    (2, "vadic", None):
        "04a5721f925b46fdc6aed7728862157a8b7cf6fda6fa4715d4bad7f6fd270d46",
    (2, "oracles", None):
        "f6ff39657ef311ce91b90ed28547c0523e1dbd98302c7e146fb0cdb8b7bac85d",
    (3, "congruence", None):
        "b6513ad943417bb372694602ff34c24b9abc0aed942aea6b2bea2bc12085926a",
    (3, "det", None):
        "619a751d734df10d5176fe747ef34b5f3328023fba089ee328f45b4dff5df49b",
    (3, "generators", None):
        "c933878b6de96b49ec546c97916ddd8f7ad993c4cc0af315831a24386c519194",
    (3, "hecke-mult-tau", None):
        "41a6d8997b825cd7ecbd65497125b2a9053893120f6cf49c05b611396636cf10",
    (3, "hyperderiv-hecke", None):
        "c61564aac416702abb2e6b94466564b733b0774cdadf5262d333eaab40dd3e73",
    (3, "vadic", None):
        "ae63771ccbb62c9753b320b8d8155205632f2e3d854b7b00f8f810fff81df76b",
    (3, "legendre", None):
        "d7c9b8a437c9a340951d02183d885cc250ba1e22c91f1867d1c9e3db34700faa",
    (3, "oracles", None):
        "bebc79ce2c2ab55d5b59978c6ef30c46a95636d27308b87a171420827690c92a",
    (3, "hecke-eigen", None):
        "6a29955edf76b053d0c106e47b24289e607458e19d3d579f468cd25f534160bb",
    (3, "properties", None):
        "d70924bf5a11ed0eaccdf5aae5f7ef31cdc037b6df824945cd14c5130ce3785b",
    (3, "eisenstein-aexp", None):
        "59430235964a22ebbe93313b349a7ed16f80fcafcd6d957ad2b0845b519c3767",
    (3, "specialize-petrov", None):
        "94637e5d6c45303808d16295e92e554b280bd2ec237a0e5a41f6742426d76b95",
    (4, "congruence", None):
        "2fb70f26fb62a73e34a82f80d173da6e2a88873f9596e910387cd8afa71e440c",
    (4, "vadic", None):
        "5c9d3a875ac015938ffbc4c8f9f9de0662f548360d4df7dcfb13a33c718657db",
    (4, "hecke-eigen", None):
        "34750969fab47aab221c4500ad872f1398f62c4cc960d37241dcabf00fbda6b0",
    (4, "hyperderiv-hecke", None):
        "1fca68cdd73c052ff7c7b3716b6d46941e688dd6a336ccb2b520ffafb325de7a",
    (4, "oracles", None):
        "7e5a03d5409b9a47b7f47bdf88b6a807124b0adf1c479676a4ae9b002828e45a",
    (4, "eisenstein-aexp", None):
        "29d894c5d4c4b11e94bc673a88783a2d34221340bb2d8ca33a0bd6227f2577ba",
    (4, "specialize-petrov", None):
        "9412a79df8b9fd4aad45d9d7110beff2e417624be4efaade085d2fd5a05310f1",
    (4, "legendre", 49):
        "8114f4146e8fbc2d22948f228c5dcc56ba4ae0fe4b2278c47cf295a5ab7eb779",
    (4, "det", None):
        "00b5af7f93c109d3ce9f53f9d5347c80550ba341ce9cdf73b5f947beca1841f6",
    (4, "generators", None):
        "7c3884d9179dd10c362f5b88dcb24f1daa89695c384671942e15cc44f6fa6270",
    (4, "hecke-mult-tau", None):
        "446e99e6f9db847156f5a9fee1d10569f92d1ede15be105297eb9ea7b8d848a9",
    (4, "properties", None):
        "510062385bef388143a781d10014675fbf4746c7a6b02d775d8bc1b1cd3425e0",
    (4, "tau-difference", None):
        "a932132fbb59eb0b8f38259ec3d9489eaeb1fb9345d2a109668f465771840aeb",
    (4, "weight-q2-experimental", None):
        "4ff2f9ba842c829b87b0820ece8b0d618f827ddbf771f37060b5205fcc8f0c4e",
    (5, "oracles", None):
        "bfba1f909677b623de16888af30ba3220625d5b7ca3e88739cf3f9125a7074c7",
    (5, "hecke-eigen", None):
        "7b7a1c3a47fc1a05f5e4cda7b3fe7769e89e9bddbc29c5428b9b92a064b518fc",
    (5, "properties", None):
        "befde657632b6fa1d6604309bbd5e9d347f1833c0b994d6cab0d26eca14ae25f",
    (8, "det", None):
        "a2ffd7b69ccc84d85f657f31c0c61e89d6b815cfe6f7eae4e22ad52c0d7e9258",
    (8, "generators", None):
        "004b650391464abb4f5eee9c6083d1f7914b5d225969d98ed591dd64dc0bfc9e",
    (8, "eisenstein-aexp", None):
        "dc1282e6c567ee4ad855696e72e81fce1adb8def5e7ea4c3be9ebe7f3575de80",
    (8, "hecke-eigen", None):
        "110d7bca2ee9fc7ebfe326506e09d99aedcd276b1032ca6276f7f97b50cc7eff",
    (8, "specialize-petrov", None):
        "cba6fd9eced8227ecb9a717354693645165f6b2a23a16a041117db6b3230623d",
    (9, "congruence", None):
        "190ad39736b2fcb9f9444af5c95b0362c1ef6de9d0d7c92bf01e55805ee7a2e1",
    (9, "det", None):
        "a91ab06924bc34cc25a580f3d7752317519d0e86b2df97c2f5561567ec6d6b25",
    (9, "generators", None):
        "1d2f223cf893988e21139dec87a6fa0cc060d3b6ca14edf87bb57c39fee455f0",
    (9, "eisenstein-aexp", None):
        "65b422334892ebcdcb6627fc625a2e987be1edc62a05d31ef45d04be87724da0",
    (9, "vadic", None):
        "ee2b5ce3b07dcc138cc19eadc1142f5d9f485871664b6175b369b94e0aff0c0a",
    (9, "properties", None):
        "0e29c558c2a3a2e6f158a05ca0797399cba3ffa8ac69a11ac0e31358b633143f",
    (16, "eisenstein-aexp", None):
        "1c03cb110d01c75a465aa35510bd4ba249290d099dbdae4539bd4f6915dcf734",
    (16, "generators", None):
        "0a9321c17bffaeea8776e902b6a7aa1cb316ccb5003adf0c7f6a981c9b2bfd5b",
}


def report_digest(q, suite, N=None):
    """The sha256 of ``serialize.canonical_dumps`` of one suite report."""
    text = serialize.canonical_dumps(run_suite(suite, q, N))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q, suite, N", sorted(DIGESTS, key=str),
                         ids=lambda v: str(v))
def test_report_bytes_are_pinned(q, suite, N):
    assert report_digest(q, suite, N) == DIGESTS[(q, suite, N)]


def test_specialized_artifact_over_f16_is_pinned():
    """E_1 at the conjugate zeta^4 of a root of the first quadratic prime
    over F_4, at N = 40: its coefficients include x + zeta (x the
    generator of F_4), whose digit string "0110" mixes both F_4 digits."""
    ctx = Context(4)
    p = next(a for a in ctx.monics(2) if ctx.is_irreducible(a))
    F = eval_root_form(eis1(ctx, 40), RootContext(ctx, p, 1))
    text = serialize.canonical_dumps(serialize.specialized_to_json(F))
    assert '"0110"' in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "636e564eb1a6336eeb9c84541aa6f4c702634506c2d966a319647deba35ee6a9")


if __name__ == "__main__":
    # Record rows:  python tests/test_report_digests.py 3:properties 4:legendre:49
    # prints one DIGESTS entry per row (q:suite[:N]).  Record a new row at
    # the commit before the change it guards, under two PYTHONHASHSEEDs.
    import sys

    for row in sys.argv[1:]:
        q, suite, *n = row.split(":")
        key = (int(q), suite, int(n[0]) if n else None)
        print(f'    ({key[0]}, "{suite}", {key[2]}):\n'
              f'        "{report_digest(*key)}",')
