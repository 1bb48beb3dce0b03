"""The n-ary generating-function sum: exact, and the series it builds are
the ones recorded before the sum took whole levels of terms."""

import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction

from datum_gen import sample_data
from padictrees.datum import builtin
from padictrees.poincare import datum_poincare
from padictrees.ratfun import (
    RationalGF,
    factor_poly,
    gf_add,
    gf_equal,
    gf_zero,
    poly_mul,
)
from test_datum import chain_datum

# sha256 of str(f) and of json.dumps(f.to_json()), recorded while the series
# route still added its terms two at a time
GOLDEN = {
    ("point", 3): ("536d9cb961edc4e06a6e5343ebb1b8108ae6c35e013a05bff4c10f89249318b5",
                   "60accfa572bd203eb68384a783c2f94abcb7bacb0bf22b810a128b5d959299f6"),
    ("zp", 3): ("8fd9784a2fc0b47957c6a41e428a00875dd57b20a32ab3d2f72a66761195ee18",
                "7c011564dec1823e11dadbe7688f361f33ab047c8c07540c96ad17e6c0ada589"),
    ("zpn(2)", 3): ("2d7ff5c987bbe0560f0c27b2cec142c402df4a6190312720649f647379950d07",
                    "7166eac6a295a68a795ea3dda69c52b59473c027f4b26b7ba6fc9695d95b5a3e"),
    ("zpn(3)", 3): ("9f3f641c60b504c36aa9f2947773699aaeb61969d402483fc93040ce6eb0d66e",
                    "522617ce492f86c633ddd9c901bc515565384129dc4d87d83e5b73af0c63dd07"),
    ("cusp", 3): ("ee6d7a0c0f3d73c8863fbeaa5377b6f6e93f31bb4aa604be561342126d853096",
                  "4ecf308a4d02b5134863f30bc37ac48769dec4152e537ecd57013c05af986607"),
    ("y(3)", 3): ("c443d965337b036d0a76de3572edb838acd4e688412a9e22e3245b7623d3a006",
                  "dca8bcbdfa3422bd180034980e10f23734e539f7586f86ebdda56756496faf71"),
    ("point", 5): ("536d9cb961edc4e06a6e5343ebb1b8108ae6c35e013a05bff4c10f89249318b5",
                   "60accfa572bd203eb68384a783c2f94abcb7bacb0bf22b810a128b5d959299f6"),
    ("zp", 5): ("eaa67166c234300c684f1a9af74002d2dab5e723b9a22fe859e1d9775a584b9c",
                "a360ca62459e42f71738f00cce3dec0cddb5a2298b25aa29aa57b8860d7b529a"),
    ("zpn(2)", 5): ("4d0a00c32b7c53c1b72aae10d6372c97f28e8a474f006266f85a0bcc64465884",
                    "27a4d5ade3e2c417359c1ce885f05e580323736cbfd6f73295de285b6fad92c7"),
    ("zpn(3)", 5): ("90de328329e8c6f86298a56b1e4e0a8cbaf3c3318192d957552725104e98ee35",
                    "f7e9e26c06bb18fb4d9a0df08b0a38edd269eed205edce0a24a16c117ef047e1"),
    ("cusp", 5): ("3e0f6425be60898fb2d8cbcad6dff3cb607adccaa999961f851303a3af512c08",
                  "aa2e689e4b33bb940257cb721275648faabb6d26f6df0a25403ae0d25b846807"),
    ("y(3)", 5): ("c443d965337b036d0a76de3572edb838acd4e688412a9e22e3245b7623d3a006",
                  "dca8bcbdfa3422bd180034980e10f23734e539f7586f86ebdda56756496faf71"),
}
# sample_data(2033, 1, 5, 8)[0] at p = 5: a level-1 datum whose series has
# the denominator (1 - Z^2)(1 - 5*Z)(1 - 25*Z^4)
SAMPLE_GOLDEN = (
    "14fba2c0461b95ef4b9fd525d5b8c7749f3cb1cb4e36068b5c3e078bdf6b3584",
    "f1a5972c751ef819632ddd94d3ae661145ca1c1ac56d547585168df0cbd4f558",
)


def _digests(f):
    return (
        hashlib.sha256(str(f).encode()).hexdigest(),
        hashlib.sha256(json.dumps(f.to_json()).encode()).hexdigest(),
    )


def test_series_text_and_json_match_their_golden_digests():
    for (name, p), want in GOLDEN.items():
        assert _digests(datum_poincare(builtin(name, p), p)) == want, (name, p)
    D = sample_data(2033, 1, 5, 8)[0]
    assert _digests(datum_poincare(D, 5)) == SAMPLE_GOLDEN


def _pairwise(f, g):
    """f + g over the product of the two denominators, not normalised."""
    nv = f.nvars()
    fnum, gnum = f.num_poly(), g.num_poly()
    for key, mult in g.denominator:
        for _ in range(mult):
            fnum = poly_mul(fnum, factor_poly(key, nv))
    for key, mult in f.denominator:
        for _ in range(mult):
            gnum = poly_mul(gnum, factor_poly(key, nv))
    num = dict(fnum)
    for m, c in gnum.items():
        num[m] = num.get(m, Fraction(0)) + c
    return RationalGF.make(f.variables, num, f.den_counter() + g.den_counter())


# a few denominators that share factors at different multiplicities
_FACTORS = [(1, (1, 0)), (1, (0, 1)), (2, (1, 0)), (1, (1, 1)), (1, (2, 0))]
_DENOMINATORS = [
    Counter(),
    Counter({_FACTORS[0]: 1}),
    Counter({_FACTORS[0]: 2}),
    Counter({_FACTORS[0]: 1, _FACTORS[1]: 1}),
    Counter({_FACTORS[1]: 2, _FACTORS[2]: 1}),
    Counter({_FACTORS[3]: 1, _FACTORS[4]: 1}),
    Counter({_FACTORS[0]: 1, _FACTORS[4]: 2}),
]


def _random_gf(rng, variables):
    den = rng.choice(_DENOMINATORS)
    if rng.random() < 0.15:
        return RationalGF.make(variables, {}, den)  # zero over a denominator
    num = {
        (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for _ in range(rng.randint(1, 3))
    }
    return RationalGF.make(variables, num, den)


def test_sum_equals_a_pairwise_fold():
    rng = random.Random(1313)
    variables = ("X", "Y")
    for _ in range(150):
        terms = [_random_gf(rng, variables) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            # a term and its negation: the sum may cancel whole groups
            t = rng.choice(terms)
            terms.append(RationalGF.make(
                variables, {m: -c for m, c in t.numerator}, t.den_counter()
            ))
            rng.shuffle(terms)
        want = gf_zero(variables)
        for t in terms:
            want = _pairwise(want, t)
        got = gf_add(*terms)
        assert gf_equal(got, want), terms
        assert gf_equal(gf_add(gf_zero(variables), *terms), want)


def test_deep_chain_series_is_a_path():
    assert str(datum_poincare(chain_datum(1500), 3)) == "(1) / (1 - Z)"


def test_deep_chain_series_takes_under_a_second():
    D = chain_datum(1500)
    start = time.perf_counter()
    datum_poincare(D, 3)
    assert time.perf_counter() - start < 1
