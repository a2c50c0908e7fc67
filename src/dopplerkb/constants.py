"""Physical constants and reference data.

All frequency quantities in this package are in MHz, masses in unified
atomic mass units (kg derived through ``ATOMIC_MASS_KG``), temperatures in K.

The ammonia mass is the sum of the AME2003 atomic masses of one 14N and three
1H atoms; the molecular binding energy (a few eV, below 1e-10 relative) is
neglected.  The Boltzmann-constant reference is the CODATA 2002 adjustment,
which is the era-appropriate comparison value for this line.  The line's
frequency and label, the ammonia mass, the CODATA k_B (as ``kb_true``), the
cell temperature and its uncertainty and the two relative uncertainties are
defaults of the campaign configuration, which can override them.  The rest
are fixed: the speed of light, the atomic mass unit, the 14N and 1H masses
and the CODATA uncertainty of k_B.
"""

from __future__ import annotations

SPEED_OF_LIGHT_M_S = 299_792_458.0  # exact, defined

ATOMIC_MASS_KG = 1.660_538_86e-27  # CODATA 2002
KB_CODATA_2002 = 1.380_6505e-23    # J/K
KB_CODATA_2002_SIGMA = 2.4e-29     # J/K

# 14N + 3 * 1H atomic masses (AME2003), in u.
N14_MASS_U = 14.003_074_0052
H1_MASS_U = 1.007_825_0319
NH3_MASS_U = N14_MASS_U + 3.0 * H1_MASS_U
NH3_MASS_KG = NH3_MASS_U * ATOMIC_MASS_KG

# nu2 asQ(6,3) rovibrational line of 14NH3.
NH3_LINE_FREQ_MHZ = 28_953_694.0
NH3_LINE_LABEL = "14NH3 nu2 asQ(6,3)"

# Ice-bath cell temperature and the conservative probe uncertainty (20 mK).
CELL_TEMPERATURE_K = 273.15
CELL_TEMPERATURE_SIGMA_K = 0.020

# Default relative uncertainties of the fixed inputs.
MASS_SIGMA_REL_DEFAULT = 1e-9       # Penning-trap mass metrology scale
FREQUENCY_SIGMA_REL_DEFAULT = 1e-8  # frequency-axis calibration scale

CONSTANTS_VERSION = "codata2002-r1"


def as_dict() -> dict:
    """Snapshot of every constant, for run manifests: each upper-case name of
    this module, lower-cased, with its value."""
    return {name.lower(): value for name, value in globals().items() if name.isupper()}
