"""Compiled scheduler backend (``--kernel compiled``).

Two layers of specialization over the timing wheel
(:class:`~repro.sim.kernel.WheelSimulator`):

* :mod:`repro.sim.compiled.kernel` -- run-loop variants generated with
  ``compile()``/``exec`` and *direct entries* for in-horizon ``yield <int>``
  (no proxy event, no callback list, no allocation on the hot path);
* :mod:`repro.sim.compiled.specializer` -- per-architecture fabric
  specialization: arbiter policy and route plans baked into generated
  per-(master, device) transaction functions, installed only on segments
  with an FCFS arbiter, no probe subscriber and no fault injector, and
  removed the moment either hook is attached.

``repro compile -o DIR`` dumps every generated source for inspection.
"""

from .kernel import CompiledSimulator, generated_kernel_sources, KERNEL_VARIANTS

__all__ = [
    "CompiledSimulator",
    "generated_kernel_sources",
    "KERNEL_VARIANTS",
]
