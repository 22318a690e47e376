"""Physical constants, all SI (J, m, s; frequencies angular in rad/s).
hbar is the one constant HBAR; only the two Stark-chirp schedule builders
in pulses still take it as a parameter (ROADMAP item 1)."""

HBAR = 1.054571817e-34  # J s (CODATA 2018)
ATOMIC_MASS = 1.66053906660e-27  # kg
BOHR_RADIUS = 5.29177210903e-11  # m

RB87_MASS = 86.909180531 * ATOMIC_MASS  # kg
