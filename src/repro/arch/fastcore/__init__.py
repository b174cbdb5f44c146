"""The array-based pipeline core (flat-state no-probe fast path)."""

from repro.arch.fastcore.image import CoreImage, image_for
from repro.arch.fastcore.pipeline import FastPipeline

__all__ = ["CoreImage", "FastPipeline", "image_for"]
