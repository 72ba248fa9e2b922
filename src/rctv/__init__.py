"""Fast mixed-noise removal for hyperspectral cubes.

Denoises an M x N x B cube by factoring its Casorati matrix as U @ V.T
(V orthonormal, R << B columns) and running an ADMM loop with anisotropic
total-variation penalties on the R spatial slices of U.  Ships with seeded
mixed-noise simulators, the usual HSI quality metrics, and a CLI.
"""

from rctv.cube import (
    HsiCube,
    NormalizationRecord,
    denormalize_bands,
    fold_casorati,
    normalize_bands,
    read_cube,
    unfold_casorati,
    write_cube,
)
from rctv.solver import DenoiseConfig, IterationDiagnostics, denoise, solve

__version__ = "0.1.0"

__all__ = [
    "HsiCube",
    "NormalizationRecord",
    "DenoiseConfig",
    "IterationDiagnostics",
    "denoise",
    "solve",
    "unfold_casorati",
    "fold_casorati",
    "normalize_bands",
    "denormalize_bands",
    "read_cube",
    "write_cube",
    "__version__",
]
