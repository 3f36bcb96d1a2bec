"""Signal-cancellation passive beamforming simulator for RIS-aided MIMO-NOMA.

Core layers: scenario (config), channel (fading draws), pathloss
(large-scale laws + feasibility), numerics (solver, special functions,
quadrature oracle), beamforming (cancellation system build/solve/quantize),
linkmetrics (SINR/rate/outage), analytics (closed forms), montecarlo
(deterministic trial engine), validation (cross-checks), cli.
"""

__version__ = "0.1.0"
