"""The valuative Hensel cover of lifted_tree: golden status maps, work counts
and a deep singular spine."""

import hashlib
import json
import random
import runpy
import time
from pathlib import Path

import pytest

from padictrees.cli import main
from padictrees.enum_trees import No, Unknown, Yes, _Image, lifted_tree
from padictrees.padic import pval
from padictrees.polysys import PolySystem, cusp_system, make_system

ROOT = Path(__file__).resolve().parents[1]


def _enum_job_systems(seed, workdir):
    """(name, system, depth) of every job of the benchmark's enum workload,
    built by perfbench/workloads.py itself."""
    build = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["build"]
    out = []
    for job in build("enum", seed, str(workdir)):
        _, src, _, depth, *_ = job.argv
        out.append((job.name, PolySystem.load(src), int(depth)))
    return out


def _cases(workdir):
    """(name, system, depth cap) of every golden case; delta is the cap."""
    cases = []
    for seed in (1, 2, 3):
        for name, system, depth in _enum_job_systems(seed, workdir):
            cases.append((f"{name}@{seed}", system, depth))
    cases += [("cusp-p3-cap8", cusp_system(3), 8), ("cusp-p5-cap6", cusp_system(5), 6)]
    # the lifted_tree calls of test_acceptance.py: A4, then A9
    for p in (2, 3, 5):
        cases.append((f"a4-point-p{p}", make_system(p, 1, [[(1, (1,))]]), 8))
        cases.append((f"a4-zp-p{p}", make_system(p, 1, [], allow_empty=True), 8))
        cases.append((f"a4-zpn2-p{p}", make_system(p, 2, [], allow_empty=True),
                      {3: 5, 5: 4}.get(p, 8)))
    for p in (3, 5):
        cases.append((f"a9-parabola-p{p}",
                      make_system(p, 2, [[(1, (0, 1)), (-1, (2, 0))]]), 5))
        cases.append((f"a9-cubic-line-p{p}",
                      make_system(p, 2, [[(1, (0, 1)), (-1, (3, 0)), (-1, (1, 0))]]), 5))
    return cases


def _status_digest(tree, statuses):
    """Layer sizes of the lifted tree and, per depth, the sha256 of the
    listed classes in label order with their status up to kind: y, n or u."""
    letter = {Yes: "y", No: "n", Unknown: "u"}
    layers = {}
    for (d, lab), st in statuses.listed.items():
        layers.setdefault(d, []).append((lab, letter[type(st)]))
    digests = [
        hashlib.sha256(repr(sorted(layers[d])).encode()).hexdigest()[:16]
        for d in sorted(layers)
    ]
    unknown = sum(isinstance(st, Unknown) for st in statuses.listed.values())
    return tree.layer_sizes(), digests, unknown


# recorded before lifted_tree decided classes below a minor of constant
# valuation by the cover; none of these maps holds an Unknown, so every
# listed class keeps its Yes or No exactly
_GOLDEN_STATUS = {
    'cusp-p5@1': ([1, 5, 21, 103, 521, 2603], ['525d0cb040aff8b7', 'f2812de5e4edcce9', '3318a9addd7a2aed', 'e32b69f3a7e574ad', '1190aba757db555b', 'aba50430e1a291bd']),
    'cusp-p3@1': ([1, 3, 7, 20, 61, 182, 544, 1640], ['525d0cb040aff8b7', '07fb9f8185928d46', 'a7b4cf94a58fc3e9', 'b95611d6175e4e05', '7251743596ef4abd', 'fbc73b81a4eae57a', 'a8cd31a8b402f4a4', '7d8559d7ab8d6910']),
    'parabola-p5@1': ([1, 5, 25, 125, 625, 3125], ['525d0cb040aff8b7', 'babca34c6c2ee5a6', 'cf17764888fa7677', '25a09fa9b80d06f8', 'accb2e6e806c8450', '8cbc0b2dfad35969']),
    'double-root-p3@1': ([1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], ['98e634af84d0a99d', '98e634af84d0a99d', '8e8e523a47a9f3f0', '968895f3863ca1cc', 'cfc012eb0d8ce31e', '905dfdc3f3a4a810', 'b71ce5624582a080', 'd5fc39edaed82fad', '6d3edeb69e834a9d', '0e9478f768e995d5', 'c2963b4812154cc6', '734bfd094d2ecad5', '929be096a3029e3b', 'da10d449d1746fd0', '26a0b29f6ed20425', 'f7ca9b6b85038d45', 'f97ff60a694370ea']),
    'zp-p5@1': ([1, 5, 25, 125, 625, 3125, 15625], ['98e634af84d0a99d', 'c6472df123502339', 'd368a388c17531cd', '24ccc4467e5e2a5d', 'ed0fb66d0bda55db', '03604c26c951901e', '593304a9774bf870']),
    'cusp-p5@2': ([1, 5, 21, 103, 521, 2603], ['525d0cb040aff8b7', 'f2812de5e4edcce9', '2835669cabbf3382', '39b05d9031cc6af9', '699a97749acfc60f', '564121d118772b49']),
    'cusp-p3@2': ([1, 3, 7, 20, 61, 182, 544, 1640], ['525d0cb040aff8b7', 'ab5ced10faa6d6e9', '794b6b83974383f6', 'ace365e854a7743e', '651eb38d62350f0c', 'f45909760ba914cc', 'fcc54828e3a463ca', 'd6d4c6a0d320fb6f']),
    'parabola-p5@2': ([1, 5, 25, 125, 625, 3125], ['525d0cb040aff8b7', '936fca22311be16d', 'b2dc9679668e0e9a', 'af1c3e3772f87072', 'a6ebbc00edcbd89a', 'e728607f25741784']),
    'double-root-p3@2': ([1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], ['98e634af84d0a99d', '98e634af84d0a99d', '8e8e523a47a9f3f0', '968895f3863ca1cc', 'cfc012eb0d8ce31e', '905dfdc3f3a4a810', 'b71ce5624582a080', 'd5fc39edaed82fad', '6d3edeb69e834a9d', '0e9478f768e995d5', 'c2963b4812154cc6', '734bfd094d2ecad5', '929be096a3029e3b', 'da10d449d1746fd0', '26a0b29f6ed20425', 'f7ca9b6b85038d45', 'f97ff60a694370ea']),
    'zp-p5@2': ([1, 5, 25, 125, 625, 3125, 15625], ['98e634af84d0a99d', 'c6472df123502339', 'd368a388c17531cd', '24ccc4467e5e2a5d', 'ed0fb66d0bda55db', '03604c26c951901e', '593304a9774bf870']),
    'cusp-p5@3': ([1, 5, 21, 103, 521, 2603], ['525d0cb040aff8b7', 'ca0ad1aea45ebabe', '37454e8ba861993e', 'a83de097e20d5a03', 'd9bbad2ddafeab7f', '111dadf3602a9c2b']),
    'cusp-p3@3': ([1, 3, 7, 20, 61, 182, 544, 1640], ['525d0cb040aff8b7', '55080aabe6855fe5', 'a8326fe3b25d3982', '0527c35498a9e3af', '7b9edb9dd10778c4', '4999b0b1e39ee431', '84e7328cc49d43cd', '39f48c56102ba0f0']),
    'parabola-p5@3': ([1, 5, 25, 125, 625, 3125], ['525d0cb040aff8b7', '484c14121a8cd849', '0959d8e6fb7f0a5f', 'b79612f987960403', 'f9985e394f98334d', '016368c8e648a25c']),
    'double-root-p3@3': ([1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], ['98e634af84d0a99d', '98e634af84d0a99d', '8e8e523a47a9f3f0', '968895f3863ca1cc', 'cfc012eb0d8ce31e', '905dfdc3f3a4a810', 'b71ce5624582a080', 'd5fc39edaed82fad', '6d3edeb69e834a9d', '0e9478f768e995d5', 'c2963b4812154cc6', '734bfd094d2ecad5', '929be096a3029e3b', 'da10d449d1746fd0', '26a0b29f6ed20425', 'f7ca9b6b85038d45', 'f97ff60a694370ea']),
    'zp-p5@3': ([1, 5, 25, 125, 625, 3125, 15625], ['98e634af84d0a99d', 'c6472df123502339', 'd368a388c17531cd', '24ccc4467e5e2a5d', 'ed0fb66d0bda55db', '03604c26c951901e', '593304a9774bf870']),
    'cusp-p3-cap8': ([1, 3, 7, 20, 61, 182, 544, 1640, 4918], ['525d0cb040aff8b7', '07fb9f8185928d46', '383692764cd9c704', '7efb1ea061ddff7a', '4ff1521c42dc3f56', '0dcb3993af044003', '0e27f40590bc9bed', '03267c25ff054f1b', '87c663f10e60cd03']),
    'cusp-p5-cap6': ([1, 5, 21, 103, 521, 2603, 13011], ['525d0cb040aff8b7', 'a3c731cfb28acfd6', 'f33352e8f2843bb6', '8c0637d8576bf22e', '4c64ef53e3ed0d83', '4f121852cd8ae9b0', '0afbf7df5fb67fd3']),
    'a4-point-p2': ([1, 1, 1, 1, 1, 1, 1, 1, 1], ['98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d']),
    'a4-zp-p2': ([1, 2, 4, 8, 16, 32, 64, 128, 256], ['98e634af84d0a99d', 'f075a6e1bc0bba69', '18d0e1095b622cd9', 'b2073aa3663ebec7', '42c8b8839baf59f1', '314bbff4b30a6688', 'c7466ea7f0723f0b', '356fdc6c6a25fec7', '15adc358c8801136']),
    'a4-zpn2-p2': ([1, 4, 16, 64, 256, 1024, 4096, 16384, 65536], ['525d0cb040aff8b7', '7f81a37949cc6ed0', '5c804568f9936715', 'ea35886364ac9301', '352aef893a7f7663', '8c03fe7864a415b7', 'e9229987a3ad1e04', '519268cb5263b132', 'c5e8e19028769b89']),
    'a4-point-p3': ([1, 1, 1, 1, 1, 1, 1, 1, 1], ['98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d']),
    'a4-zp-p3': ([1, 3, 9, 27, 81, 243, 729, 2187, 6561], ['98e634af84d0a99d', 'bcd453e1bee7e201', 'a1b4c8ad37a76a9d', '94a8e6575461e421', '353f412bc2c448a2', '026b4a4ae3036a78', '5e2ef899415e56fa', '732a351cf7462d93', '843d8668394a055d']),
    'a4-zpn2-p3': ([1, 9, 81, 729, 6561, 59049], ['525d0cb040aff8b7', '0bafabacd6a5353d', '196d18ea206fc19d', 'dbdd998313f55c95', '2a982fee306526db', '4ad02eec0e461ee3']),
    'a4-point-p5': ([1, 1, 1, 1, 1, 1, 1, 1, 1], ['98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d', '98e634af84d0a99d']),
    'a4-zp-p5': ([1, 5, 25, 125, 625, 3125, 15625, 78125, 390625], ['98e634af84d0a99d', 'c6472df123502339', 'd368a388c17531cd', '24ccc4467e5e2a5d', 'ed0fb66d0bda55db', '03604c26c951901e', '593304a9774bf870', '31d1e7ef70891d9f', '97171718a89f3cc1']),
    'a4-zpn2-p5': ([1, 25, 625, 15625, 390625], ['525d0cb040aff8b7', '8a63ab53a97b583a', '4d50525a8826fd85', '30e8290907579ae3', '8858097648c1b316']),
    'a9-parabola-p3': ([1, 3, 9, 27, 81, 243], ['525d0cb040aff8b7', 'a629a05f69133397', 'a98569d71d1e4228', '915aa40f4d18588d', 'c1f8866beda768c7', '0e0a966b2507e1b5']),
    'a9-cubic-line-p3': ([1, 3, 9, 27, 81, 243], ['525d0cb040aff8b7', '1a1ab32b0f3735d4', '9a98cbb9328f558b', 'a9796171fa4097df', 'f7fd38ee5f07bf9b', '0be6b29d3988d57a']),
    'a9-parabola-p5': ([1, 5, 25, 125, 625, 3125], ['525d0cb040aff8b7', '8d36f658c9ae79b3', '82581b3199d226bf', '37994bc4df7efc36', 'db9ea6c65e225732', 'a08edb7f5ac71814']),
    'a9-cubic-line-p5': ([1, 5, 25, 125, 625, 3125], ['525d0cb040aff8b7', '7cf74b47e5b6f136', '0974c453b3f35d72', '96991fc3dec91b63', '241ac2e7589e90fa', 'fbd1507e5c1ae200']),
}


@pytest.fixture(scope="module")
def golden_cases(tmp_path_factory):
    return {name: (system, cap) for name, system, cap in _cases(tmp_path_factory.mktemp("jobs"))}


@pytest.mark.parametrize("name", sorted(_GOLDEN_STATUS))
def test_status_map_matches_its_golden_digest(golden_cases, name):
    system, cap = golden_cases[name]
    tree, statuses = lifted_tree(system, cap, cap)
    sizes, digests, unknown = _status_digest(tree, statuses)
    want_sizes, want_digests = _GOLDEN_STATUS[name]
    assert sizes == want_sizes
    assert unknown == 0
    assert len(digests) == len(want_digests)
    for d, (got, want) in enumerate(zip(digests, want_digests)):
        assert got == want, f"depth {d}"


def _least_minor_valuation(system, label):
    """The least valuation of a k x k Jacobian minor at the label (None when
    every minor vanishes); for one equation the minors are the partials."""
    vals = [pval(system.p, system.partial(0, j, label)) for j in range(system.n)]
    return min((v for v in vals if v is not None), default=None)


def _below_a_covering_class(system, depth, label):
    """Whether some strict ancestor (j, label mod p^j), j >= 1, has a minor
    of valuation e <= j - 1: a covering class."""
    for j in range(1, depth):
        e = _least_minor_valuation(system, tuple(x % system.p**j for x in label))
        if e is not None and j >= e + 1:
            return True
    return False


def test_no_class_below_a_covering_class_is_searched_or_certified(monkeypatch):
    # the cusp at p = 3, cap 8: the counts are deterministic, so bounding
    # them guards the cover's saving without timing anything (before the
    # cover: 2,440 searches and 2,465 Newton tests)
    from padictrees import enum_trees

    system = cusp_system(3)
    searched, certified = [], []
    search, certify = enum_trees._Lifter._search, enum_trees.newton_certify

    def counted_search(self, label, depth, g, budget):
        searched.append((depth, label))
        return search(self, label, depth, g, budget)

    def counted_certify(sys, x):
        certified.append((x.prec, x.residues()))
        return certify(sys, x)

    monkeypatch.setattr(enum_trees._Lifter, "_search", counted_search)
    monkeypatch.setattr(enum_trees, "newton_certify", counted_certify)
    tree, _ = lifted_tree(system, 8, 8)
    assert tree.layer_sizes() == [1, 3, 7, 20, 61, 182, 544, 1640, 4918]
    for depth, label in searched + certified:
        assert not _below_a_covering_class(system, depth, label), (depth, label)
    assert len(searched) <= 36
    assert len(certified) <= 44


def test_a_long_singular_spine_needs_no_recursion(tmp_path, capsys):
    # x^2 = 2 * 3^1201 at p = 3: the spine class 0 has J(0) = 0, so no
    # cover applies, and the search walks the spine down to depth 600
    path = tmp_path / "spine.json"
    path.write_text(json.dumps(make_system(3, 1, [[(1, (2,)), (-2 * 3**1201, ())]]).to_json()))
    start = time.perf_counter()
    code = main(["enum", str(path), "--depth", "300", "--format", "text"])
    assert time.perf_counter() - start < 5
    assert code in (0, 3)
    out, err = capsys.readouterr()
    assert len(out.split()) == 301
    assert "Traceback" not in err


def test_image_table_matches_the_listed_image():
    # the Smith form's answer against the image listed vector by vector,
    # on small k x n matrices mod p^e, at every modulus p^m with m <= e
    from itertools import product

    rng = random.Random(16)
    for _ in range(60):
        p, e = rng.choice(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)))
        k, n = rng.choice(((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)))
        jac = [[rng.choice((0, 1, p, p * p, rng.randrange(p**3))) for _ in range(n)] for _ in range(k)]
        image = _Image(jac, p, e)
        spans = []
        for m in range(1, e + 1):
            mod = p**m
            spans.append({
                tuple(sum(a * x for a, x in zip(row, t)) % mod for row in jac)
                for t in product(range(mod), repeat=n)
            })
        for c in product(range(p**e), repeat=k):
            want = next(
                (m for m in range(1, e + 1) if tuple(x % p**m for x in c) not in spans[m - 1]), 0
            )
            # f(x) / p^depth is c at depth 2
            assert image.miss([x * p**2 for x in c], 2) == want, (jac, p, e, c)
