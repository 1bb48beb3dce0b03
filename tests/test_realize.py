"""Tests for witness clouds: u-functions, skeleton separation, synthesis."""

import hashlib
import json
import random

import pytest

from datum_gen import random_leafless_datum, sample_data
from padictrees.datum import (
    SideBranchDatum,
    SkeletonDatum,
    TERMINAL,
    TreeDatum,
    _whole_strip,
    cusp_datum,
    point_datum,
    star_branch,
    terminal_branch,
    validate,
    y_datum,
    zpn_datum,
)
from padictrees.errors import (
    DomainError,
    LevelCap,
    NotLeafless,
    NotRealizable,
)
from padictrees.gamma import INFINITY, const_fn, linear, whole_quadrant
from padictrees.padic import PadicApprox, from_int, val, vec
from padictrees.realize import (
    PREC_LIMIT,
    RealizationContext,
    WitnessCloud,
    realize,
    separating_depth,
    skeleton_fns,
    u_fn,
    verify_realization,
)
from padictrees.trees import Ball, from_points, is_isomorphic


def test_u_fn_integer_linear():
    ctx = RealizationContext(5, 12)
    x = vec(5, 12, [5**3 * 2])
    u = u_fn(linear([1], 0), x, ctx)
    assert val(u) == 3
    u2 = u_fn(linear([2], 1), x, ctx)
    assert val(u2) == 7


def test_u_fn_half_integer():
    # ell(k) = (k+1)/2 at v(x) = 3 gives v(u) = 2
    ctx = RealizationContext(5, 16)
    x = vec(5, 16, [5**3 * 3])
    u = u_fn(linear(["1/2"], "1/2"), x, ctx)
    assert val(u) == 2


def test_u_fn_rejects_bad_values():
    ctx = RealizationContext(5, 12)
    x = vec(5, 12, [5**3])
    with pytest.raises(DomainError):
        u_fn(linear(["1/2"], 0), x, ctx)  # 3/2 is not an integer
    with pytest.raises(DomainError):
        u_fn(linear([1], -7), x, ctx)  # negative valuation


def test_u_fn_valuation_is_exact_randomized():
    rng = random.Random(5)
    fns = [
        linear([1], 0),
        linear(["1/2"], "1/2"),
        linear([2, 1], 1),
        linear(["1/3", "2/3"], 0),
        linear(["3/4", "1/2"], "1/4"),
    ]
    for p in (3, 5):
        ctx = RealizationContext(p, 24)
        for ell in fns:
            m = len(ell.coeffs)
            for _ in range(40):
                ks = [rng.randint(0, 4) for _ in range(m)]
                lv = ell.value(ks)
                if lv.denominator != 1 or lv < 0:
                    continue
                # unit parts 1 mod p keep the coordinate valuations exact
                coords = [p**k * (1 + p * rng.randrange(p**5)) for k in ks]
                x = vec(p, 24, coords)
                assert val(u_fn(ell, x, ctx)) == int(lv)


def test_u_fn_lipschitz_sampled():
    # whenever ell >= every coordinate valuation, u is 1-Lipschitz on the
    # set with that valuation vector
    rng = random.Random(17)
    violations = 0
    checked = 0
    for p in (3, 5):
        ctx = RealizationContext(p, 24)
        for _ in range(10):
            m = rng.randint(1, 2)
            e = rng.randint(1, 4)
            bs = [e + rng.randint(0, 2 * e) for _ in range(m)]
            beta = rng.randint(0, 2) * e
            ell = linear(
                [f"{b}/{e}" for b in bs], f"{beta}/{e}"
            )
            for _ in range(50):
                ks = [rng.randint(0, 3) for _ in range(m)]
                if ell.value(ks).denominator != 1:
                    continue
                xs = [p**k * (1 + p * rng.randrange(p**5)) for k in ks]
                d = rng.randint(max(ks) + 1, 12)
                ys = [
                    a + p**d * rng.randrange(p**4) for a in xs
                ]
                x, y = vec(p, 24, xs), vec(p, 24, ys)
                diff = min(
                    v if isinstance(v, int) else 99
                    for v in [val(c) for c in (x - y).coords]
                )
                ux, uy = u_fn(ell, x, ctx), u_fn(ell, y, ctx)
                du = val(ux - uy)
                checked += 1
                if isinstance(du, int) and du < min(diff, 20):
                    violations += 1
    assert checked > 200
    assert violations == 0


def test_skeleton_separation_depths():
    # skeleton of Y(3): the two branch joints separate at depth 3
    D = y_datum(3, m=0)
    sep = separating_depth(D, 2, 3)
    assert sep.value(()) == 3
    fns = skeleton_fns(D)
    ctx = RealizationContext(5, 20)
    vals = [fns.value(j, ctx=ctx) for j in range(4)]
    # distinct virtual joints must differ exactly at the separation depth
    d23 = min(
        v if isinstance(v, int) else 99
        for v in [val(a - b) for a, b in zip(vals[2], vals[3])]
    )
    assert d23 == 3


def test_realize_point_is_path():
    cloud = realize(point_datum(), 6, p=3)
    report = verify_realization(cloud, point_datum(), 3, 6)
    assert report.ok, report.message
    assert report.cloud_layers == [1] * 7


NAMED_CASES = [
    (y_datum(0, m=0), 3, 6),
    (y_datum(3, m=0), 3, 8),
    (zpn_datum(1, 3), 3, 5),
    (zpn_datum(2, 3), 3, 4),
    (cusp_datum(3), 3, 6),
    (cusp_datum(5), 5, 4),
]


def test_realize_named_data():
    for D, p, cap in NAMED_CASES:
        cloud = realize(D, cap, p=p)
        report = verify_realization(cloud, D, p, cap)
        assert report.ok, (report.message, D)


def _level1_draws(seed, count):
    """Valid level-1 leafless draws with a side tree behind some leaf."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        D = random_leafless_datum(rng, 1)
        if not validate(D) and any(
            side is not TERMINAL for br, _ in D.side_data() for side in br.leaf_data
        ):
            out.append(D)
    return out


def _cusp_behind_a_star():
    """A level-2 datum: the cusp's tree hangs at the root, so the side plans
    carry side branches of their own."""
    whole = whole_quadrant(0)
    return TreeDatum(
        level=2, m=0, domain=whole, rho=1, skeleton=SkeletonDatum((-1, 0), (INFINITY,)),
        joint_branches=((0, star_branch(1, cusp_datum(3))),),
        bone_branches=((1, _whole_strip(whole), terminal_branch()),),
    )


GOLDEN_CASES = (
    NAMED_CASES
    + [(D, 3, 6) for D in sample_data(101, 4, 3, 6)]
    # the benchmark's shapes: the cusp jobs at their depths (at p = 3 the
    # only u-values with e = 2), level-1 draws at the random jobs' (p, depth),
    # and two level-2 data, whose side plans have side branches of their own
    + [(cusp_datum(3), 3, 8), (cusp_datum(5), 5, 5)]
    + [(D, p, cap) for D in _level1_draws(7, 4) for p, cap in ((3, 6), (5, 5))]
    + [(_cusp_behind_a_star(), 3, 5), (zpn_datum(2, 2), 2, 6)]
)

# sha256 of json.dumps(cloud.to_json()): the clouds are deterministic, and a
# speed-up of the synthesis must leave every byte of them as it is
GOLDEN_CLOUDS = [
    "4c64af25c4966a6d0cc697f570721a391a69b5b791a4e8a9a3935b944b92c3a6",
    "472fa933d35a69aa637c890882ec31e3fe96e3c52d94f8b2ee2998ecfd0a87bf",
    "b17ed95abf85991f3f99d0bc012d3315b34930732085e5939acbc12ee53fbbcc",
    "68615ffd2bb5194cf47cd8c371a8547f23cd7af4dcfce908a74c3e536295c584",
    "35784eb426a765c2a764905fcf7cdd4c7a708b4c43b798fd4e2785f93d9043e6",
    "b3341cfaca3693763afa863daa945311aa46302311302c5ed80d337b02175036",
    # sample_data(101, 4, 3, 6) at depth 6
    "4c64af25c4966a6d0cc697f570721a391a69b5b791a4e8a9a3935b944b92c3a6",
    "4c64af25c4966a6d0cc697f570721a391a69b5b791a4e8a9a3935b944b92c3a6",
    "87277f88375fe2f94e18a11629e8863dd970100fbcda5175b05553711513d324",
    "a2903dfb5a81cd22933072cc3b96b38774c09be120cb6657034aa63b4f6a2b73",
    # cusp_datum(3) at depth 8, cusp_datum(5) at depth 5
    "393f00f39ae69e7a1c91d8c2ec154421285f4967296d1a099b568fead779d5ce",
    "8ed96d734aba4726e9d18beaaf6b43976980f138cad0651a0db19bf4c402e37d",
    # _level1_draws(7, 4), each at (p, depth) = (3, 6) and (5, 5)
    "f3008f450f3a6db60c049cbe9b68549bad201620254e166b84f23510959ca223",
    "60b9b0254e4b89780fa00a047a5c3289498af9d34653a58c2fc9def878a5fc4f",
    "e3b2e43bddaba16f2ea202a5758316dca3a4515e95ed125d748ef03e7ace0a36",
    "16a3b7ab00059edd399cc097831368ee8236299c370f920ff2f67254e8615c6a",
    "371b3255c579f14df180c27035b53ec110b1448f22fd8b74abd35577014d1a38",
    "f5993d26a6558548bd774e4da52228a15a0dd08d55cbb7335bdcde2fafc81942",
    "8c179507ef48b769e2cfb1af44c2c95d48438e9f64ccf38a5d717321f3ae66ea",
    "175a0bcf395dcfe065b58c70a5b019fe75b0d8f955b5529f42edf3645e069b2a",
    # _cusp_behind_a_star() at p = 3, depth 5; zpn_datum(2, 2) at p = 2, depth 6
    "0c5248a2a211c568d571ec54e221a2545429ca91f2863af2abf3fab5dabf8f8e",
    "1df3689e96bec4af1d81234b9c1ea46c28030cf96752994cb99dca2c5115aa63",
]


def test_realize_golden_clouds():
    got = [
        hashlib.sha256(
            json.dumps(realize(D, cap, p=p).to_json()).encode()
        ).hexdigest()
        for D, p, cap in GOLDEN_CASES
    ]
    assert got == GOLDEN_CLOUDS


def test_golden_clouds_pass_the_check():
    for D, p, cap in GOLDEN_CASES[len(NAMED_CASES) + 4:]:
        report = verify_realization(realize(D, cap, p=p), D, p, cap)
        assert report.ok, (report.message, D)


def test_realize_rejects_a_non_prime():
    # p = 1 would loop forever in the valuation of the bone denominators,
    # and a cloud over p = 4 could not be loaded again
    for p in (1, 4):
        with pytest.raises(DomainError, match=f"not p = {p}"):
            realize(y_datum(1, m=0), 3, p=p)


def test_realize_rejects_parametrized():
    with pytest.raises(NotRealizable):
        realize(y_datum(linear([1]), m=1), 4, p=3)


def test_realize_rejects_level_3():
    with pytest.raises(LevelCap):
        realize(zpn_datum(3, 2), 3, p=2)


def test_realize_rejects_leafy_datum():
    # a side branch that stops at depth 1 creates tree leaves
    sk = SkeletonDatum((-1, 0), (INFINITY,))
    whole = whole_quadrant(0)
    from padictrees.datum import _whole_strip

    D = TreeDatum(
        level=0, m=0, domain=whole, rho=1, skeleton=sk,
        joint_branches=((0, star_branch(1, TERMINAL)),),
        bone_branches=((1, _whole_strip(whole), terminal_branch()),),
    )
    with pytest.raises(NotLeafless):
        realize(D, 4, p=3)


def test_realize_rejects_dead_end_joint():
    sk = SkeletonDatum((-1, 0), (const_fn(2, 0),))
    whole = whole_quadrant(0)
    from padictrees.datum import _whole_strip

    D = TreeDatum(
        level=0, m=0, domain=whole, rho=1, skeleton=sk,
        joint_branches=((0, terminal_branch()), (1, terminal_branch())),
        bone_branches=((1, _whole_strip(whole), terminal_branch()),),
    )
    with pytest.raises(NotLeafless):
        realize(D, 4, p=3)


def test_cloud_json_round_trip(tmp_path):
    cloud = realize(y_datum(2, m=0), 5, p=3)
    path = tmp_path / "cloud.json"
    path.write_text(__import__("json").dumps(cloud.to_json()))
    back = WitnessCloud.load(str(path))
    assert back == cloud
    report = verify_realization(back, y_datum(2, m=0), 3, 5)
    assert report.ok


def test_valid_clouds_round_trip_byte_identically():
    for D, p, depth in ((cusp_datum(3), 3, 5), (y_datum(2, m=0), 5, 4), (zpn_datum(2, 3), 3, 3)):
        text = json.dumps(realize(D, depth, p=p).to_json())
        assert json.dumps(WitnessCloud.from_json(json.loads(text)).to_json()) == text


def test_malformed_cloud_json_names_the_field():
    good = realize(y_datum(1, m=0), 3, p=3).to_json()
    row = good["points"][0]
    for bad, field in (
        ([1, 2], "JSON object"),
        ({**good, "format": 7}, "format"),
        ({**good, "p": 4}, "'p'"),
        ({**good, "p": "x"}, "'p'"),
        ({**good, "prec": -1}, "'prec'"),
        ({**good, "N": 0}, "'N'"),
        ({k: v for k, v in good.items() if k != "m"}, "'m'"),
        ({**good, "points": 5}, "'points'"),
        ({**good, "points": [row + ["0"]] + good["points"][1:]}, "'points'"),
        ({**good, "points": [["x"] + row[1:]] + good["points"][1:]}, "'points'"),
        ({**good, "provenance": good["provenance"][1:]}, "'provenance'"),
        ({**good, "provenance": 3}, "'provenance'"),
        ({**good, "prec": PREC_LIMIT + 1}, "'prec'"),
        ({**good, "prec": 10**30}, "'prec'"),
    ):
        with pytest.raises(DomainError) as exc:
            WitnessCloud.from_json(bad)
        assert field in str(exc.value) and "\n" not in str(exc.value), bad


def test_cloud_points_have_declared_shape():
    cloud = realize(cusp_datum(3), 4, p=3)
    assert cloud.m == 0
    for pt in cloud.points:
        assert len(pt) == cloud.N
        assert pt.prec == cloud.prec
    assert len(cloud.provenance) == len(cloud.points)


def test_realize_random_data():
    for seed, p in ((101, 3), (202, 5)):
        for D in sample_data(seed, 4, p, 6, max_nodes=20000):
            cloud = realize(D, 6, p=p)
            report = verify_realization(cloud, D, p, 6)
            assert report.ok, (report.message, D)


def test_verify_detects_wrong_cloud():
    cloud = realize(y_datum(1, m=0), 5, p=3)
    report = verify_realization(cloud, y_datum(2, m=0), 3, 5)
    assert not report.ok
    assert "mismatch" in report.message
