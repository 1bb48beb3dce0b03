"""GF text and JSON of the Poincare series stay the strings recorded while
numerator coefficients were still Fractions and every one-term sum was
normalised again."""

import json

import pytest

from datum_gen import sample_data
from padictrees.datum import cusp_datum, point_datum, zpn_datum
from padictrees.poincare import datum_poincare
from test_datum import chain_datum

# name -> (str(f), json.dumps(f.to_json())); "sample p i" is
# sample_data(515, 3, p, 8)[i] at p
GOLDEN = {
    'zpn_datum(2, 3)': (
        '(1) / (1 - 9*Z)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}], "denominator": [{"c": 9, "e": [1], "mult": 1}]}',
    ),
    'zpn_datum(2, 5)': (
        '(1) / (1 - 25*Z)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}], "denominator": [{"c": 25, "e": [1], "mult": 1}]}',
    ),
    'cusp_datum(3)': (
        '(1 - 3*Z^2 - 4*Z^3 + 3*Z^4 + 9*Z^5) / (1 - Z^2)(1 - 3*Z)(1 - 3*Z^3)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [2], "c": "-3"}, {"e": [3], "c": "-4"}, {"e": [4], "c": "3"}, {"e": [5], "c": "9"}], "denominator": [{"c": 1, "e": [2], "mult": 1}, {"c": 3, "e": [1], "mult": 1}, {"c": 3, "e": [3], "mult": 1}]}',
    ),
    'cusp_datum(5)': (
        '(1 - 5*Z^2 - 7*Z^3 + 10*Z^4 + 25*Z^5) / (1 - Z^2)(1 - 5*Z)(1 - 5*Z^3)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [2], "c": "-5"}, {"e": [3], "c": "-7"}, {"e": [4], "c": "10"}, {"e": [5], "c": "25"}], "denominator": [{"c": 1, "e": [2], "mult": 1}, {"c": 5, "e": [1], "mult": 1}, {"c": 5, "e": [3], "mult": 1}]}',
    ),
    'point_datum()': (
        '(1) / (1 - Z)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}], "denominator": [{"c": 1, "e": [1], "mult": 1}]}',
    ),
    'chain_datum(300)': (
        '(1) / (1 - Z)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}], "denominator": [{"c": 1, "e": [1], "mult": 1}]}',
    ),
    'sample 3 0': (
        '(1 + 2*Z + Z^2) / (1 - Z^2)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [1], "c": "2"}, {"e": [2], "c": "1"}], "denominator": [{"c": 1, "e": [2], "mult": 1}]}',
    ),
    'sample 3 1': (
        '(1 - 5*Z^2 - 2*Z^3 + 15*Z^4 + 6*Z^5 - 27*Z^7) / (1 - Z)(1 - 3*Z)(1 - 3*Z^2)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [2], "c": "-5"}, {"e": [3], "c": "-2"}, {"e": [4], "c": "15"}, {"e": [5], "c": "6"}, {"e": [7], "c": "-27"}], "denominator": [{"c": 1, "e": [1], "mult": 1}, {"c": 3, "e": [1], "mult": 1}, {"c": 3, "e": [2], "mult": 1}]}',
    ),
    'sample 3 2': (
        '(1 - 2*Z + 3*Z^2 - 3*Z^3 + 27*Z^5) / (1 - Z)(1 - 3*Z)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [1], "c": "-2"}, {"e": [2], "c": "3"}, {"e": [3], "c": "-3"}, {"e": [5], "c": "27"}], "denominator": [{"c": 1, "e": [1], "mult": 1}, {"c": 3, "e": [1], "mult": 1}]}',
    ),
    'sample 5 0': (
        '(1 + 2*Z + Z^2) / (1 - Z^2)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [1], "c": "2"}, {"e": [2], "c": "1"}], "denominator": [{"c": 1, "e": [2], "mult": 1}]}',
    ),
    'sample 5 1': (
        '(1 + Z) / (1 - Z^2)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [1], "c": "1"}], "denominator": [{"c": 1, "e": [2], "mult": 1}]}',
    ),
    'sample 5 2': (
        '(1 - 4*Z - 5*Z^2 + Z^3 - 4*Z^4) / (1 - Z^2)(1 - 5*Z)',
        '{"format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}, {"e": [1], "c": "-4"}, {"e": [2], "c": "-5"}, {"e": [3], "c": "1"}, {"e": [4], "c": "-4"}], "denominator": [{"c": 1, "e": [2], "mult": 1}, {"c": 5, "e": [1], "mult": 1}]}',
    ),
}


def _data():
    yield "zpn_datum(2, 3)", zpn_datum(2, 3), 3
    yield "zpn_datum(2, 5)", zpn_datum(2, 5), 5
    yield "cusp_datum(3)", cusp_datum(3), 3
    yield "cusp_datum(5)", cusp_datum(5), 5
    yield "point_datum()", point_datum(), 3
    yield "chain_datum(300)", chain_datum(300), 3
    for p in (3, 5):
        for i, D in enumerate(sample_data(515, 3, p, 8)):
            yield f"sample {p} {i}", D, p


@pytest.mark.parametrize("name, D, p", [pytest.param(*case, id=case[0]) for case in _data()])
def test_series_keeps_its_text_and_json(name, D, p):
    f = datum_poincare(D, p)
    assert (str(f), json.dumps(f.to_json())) == GOLDEN[name]
