"""Synthetic workloads mirroring the ESTEDI partners' data and access types."""

from .access import (
    QueryEvent,
    ZipfQueryStream,
    cross_series_regions,
    slice_region,
    subcube,
)
from .cfd import ChannelFlowSource, FlowGrid, cfd_object, flow_cell_type
from .climate import ClimateGrid, TemperatureSource, climate_object, monthly_series
from .cosmology import DensitySource, SimulationBox, cosmology_object
from .genetics import (
    AlignmentGrid,
    SimilaritySource,
    alignment_object,
    diagonal_band_frame,
)
from .satellite import SceneGrid, VegetationIndexSource, satellite_object
from .synthetic import zero_object

__all__ = [
    "AlignmentGrid",
    "ChannelFlowSource",
    "ClimateGrid",
    "FlowGrid",
    "cfd_object",
    "flow_cell_type",
    "DensitySource",
    "QueryEvent",
    "SceneGrid",
    "SimulationBox",
    "TemperatureSource",
    "VegetationIndexSource",
    "ZipfQueryStream",
    "SimilaritySource",
    "alignment_object",
    "climate_object",
    "diagonal_band_frame",
    "cosmology_object",
    "cross_series_regions",
    "monthly_series",
    "satellite_object",
    "slice_region",
    "subcube",
    "zero_object",
]
