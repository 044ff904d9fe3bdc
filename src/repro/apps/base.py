"""Shared application-model infrastructure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.ir.nodes import Program

#: Elements of 8 bytes per default 4 KB page.
ELEMS_PER_PAGE = 512


def doubles_for_pages(pages: int) -> int:
    """Number of 8-byte elements filling ``pages`` default pages."""
    return pages * ELEMS_PER_PAGE


def pencil_dims_for_pages(
    pages: int, arrays: int, components: int = 1, side: int = 112
) -> tuple[int, int, int]:
    """Grid dimensions (depth, side, side) filling ``pages``.

    The paper's NAS grids (64^3 .. 128^3+) have planes of hundreds of KB;
    at this package's reduced platform scale a *cubic* grid would have
    planes only a strip or two wide, which distorts the software
    pipelining.  Keeping the plane dimensions at paper scale and shrinking
    only the number of planes preserves the per-plane loop trip counts
    that the compiler's strip mining sees.
    """
    total_elems = doubles_for_pages(pages)
    per_grid = total_elems // (arrays * components)
    depth = max(4, per_grid // (side * side))
    return depth, side, side


#: NAS-style problem classes, as multiples of available memory.  Class S
#: is in-core (the Figure 6 regime), W sits at the memory boundary, A is
#: the paper's canonical out-of-core point (~2x), and B matches the
#: Figure 7 "larger" sizes.  ``--size-class`` resolves through
#: :func:`repro.harness.experiment.size_class_pages`.
SIZE_CLASSES: dict[str, float] = {"S": 0.35, "W": 1.0, "A": 2.0, "B": 6.0}


@dataclass(frozen=True)
class AppSpec:
    """One benchmark: metadata (Table 2) plus a program factory."""

    #: Paper's name for the benchmark (BUK, CGM, ...).
    name: str
    #: Modern NAS name (IS, CG, ...).
    nas_name: str
    full_name: str
    #: Table-2 style description of the computation and access pattern.
    description: str
    #: Builds the program at a given major-data footprint.
    build: Callable[[int, int], Program] = field(compare=False)
    #: Default out-of-core footprint, as a multiple of available memory.
    default_memory_multiple: float = 2.0
    #: Dominant access pattern (for Table 2 and reports).
    pattern: str = ""

    def make(self, data_pages: int, seed: int = 1) -> Program:
        """Instantiate the program with ~``data_pages`` of major data."""
        return self.build(data_pages, seed)
