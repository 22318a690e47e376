"""The config corpus: every run gives what tests/corpus/expected records.

Exit codes, first stderr lines, CSV headers and values that are not
floats must match exactly, floats to 1e-12 (absolute or relative), so the
test holds across numpy builds; tests/corpus/corpus.py makes the strict
sha256 comparison and rewrites the expectations.
"""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).parent / "corpus" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

TOLERANCE = 1e-12
_HASHES = ("sha256", "stdout_sha256")


def assert_matches(got, want, where="record"):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            if key not in _HASHES:
                assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), f"{where}: {len(got)} items != {len(want)}"
        for index, (a, b) in enumerate(zip(got, want)):
            assert_matches(a, b, f"{where}[{index}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_corpus_has_an_expectation_per_config():
    assert corpus.names() == sorted(p.stem for p in corpus.EXPECTED.glob("*.json"))


@pytest.mark.parametrize("name", corpus.names())
def test_config_gives_its_expected_outputs(name):
    assert_matches(corpus.run(name), corpus.expected(name))


def test_floats_compare_to_the_tolerance_and_the_rest_exactly():
    assert_matches({"p": [1.0, None, "x"]}, {"p": [1.0 + 5e-13, None, "x"]})
    for got in ({"p": [1.0 + 2e-12, None, "x"]}, {"p": [1.0, 0.0, "x"]},
                {"p": [1.0, None, "y"]}, {"p": [1.0, None]}, {"q": [1.0, None, "x"]}):
        with pytest.raises(AssertionError):
            assert_matches(got, {"p": [1.0, None, "x"]})
    with pytest.raises(AssertionError):
        assert_matches(3, 3.0)
