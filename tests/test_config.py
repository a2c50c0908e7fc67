import pytest

from dopplerkb.config import _CONVERTERS, CampaignConfig, config_from_dict, json_number
from dopplerkb.errors import DataError

# Every key that holds a number: those read by ``json_number``, ``snr`` and
# the one-element list of ``pressures_pa``.
NUMBER_KEYS = [key for key, read in _CONVERTERS.items()
               if read is json_number or key in ("snr", "pressures_pa")]
EXTREMES = [5e-324, 1e-300, 1e-30, 0.0, -0.0, 1e-6, 1e30, 1e300, 1.7976931348623157e308,
            -1e300, -1.0]


def test_the_number_keys():
    assert len(NUMBER_KEYS) == 14


@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_an_extreme_finite_number_loads_or_is_refused_as_data(key, value):
    # Load only: some of these configs load and ask for more spectrum points
    # than memory holds, so none is synthesized.
    outer, _, inner = key.rpartition(".")
    number = [value] if key == "pressures_pa" else value
    raw = {outer: {inner: number}} if outer else {inner: number}
    try:
        assert isinstance(config_from_dict(raw), CampaignConfig)
    except DataError:
        pass
