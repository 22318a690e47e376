"""Time the package's set-up in a fresh interpreter and print it in seconds.

Usage: python3 perfbench/setup_probe.py <repo root> <preset name>

Set-up is: import quantum_tweezers, resolve the preset, derive_all,
build_level_model and one warm-up propagate (a resonant pi pulse).
"""

import time

started = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, f"{sys.argv[1]}/src")

import quantum_tweezers as qt  # noqa: E402

preset = qt.get_preset(sys.argv[2])
model = qt.build_level_model(qt.derive_all(preset.system), n_max=2)
qt.propagate(model, qt.build_pi_pulse(model, (0, 1), preset.pi.t_omega))
print(repr(time.perf_counter() - started))
