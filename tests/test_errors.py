"""``errors.refused_as``: the one rule that names the source of a refused value."""

import pytest

from dopplerkb.config import CampaignConfig
from dopplerkb.errors import DataError, refused_as


def refuse(exc):
    raise exc


def test_the_build_is_returned():
    # the name and the build are positional only, so a build may take them as keywords
    assert refused_as("--out", dict, [("a", 1)], name=2, build=3) == {"a": 1, "name": 2,
                                                                      "build": 3}


@pytest.mark.parametrize("kind", [ValueError, DataError])
def test_a_refusal_is_a_data_error_naming_its_source(kind):
    with pytest.raises(DataError) as refused:
        refused_as("spectrum.txt", refuse, kind("a spectrum needs at least 2 samples"))
    assert str(refused.value) == "spectrum.txt: a spectrum needs at least 2 samples"
    # raised from None: the traceback holds the named refusal alone
    assert refused.value.__cause__ is None and refused.value.__suppress_context__


def test_any_other_exception_passes_through_unchanged():
    exc = KeyError("delta_mhz")
    with pytest.raises(KeyError) as raised:
        refused_as("fit 'a'", refuse, exc)
    assert raised.value is exc
    # a config's non-integer seed is a TypeError, not a refusal named by the config
    with pytest.raises(TypeError):
        CampaignConfig(seed=1.5)
