"""siftmatch: SIFT descriptor matching by cosine angle distance.

Provides a floating-point reference matcher and a bit-faithful, cycle-timed
model of a fully pipelined FPGA matching core, plus the roofline model used
to size its memory-bandwidth budget.
"""

from .fixedpoint import FxSample, QFormat, UQ1_15, UQ2_14
from .descriptors import (
    Descriptor,
    DescriptorSet,
    DescriptorFormatError,
    generate_synthetic,
    load_descriptor_set,
    save_descriptor_set,
)
from .reference import dot_product, match_all
from .cordic import AngleSample, CordicConfig, cordic_arccos
from .pipeline import (
    MinPairEntry,
    PipelineConfig,
    RooflinePoint,
    RunReport,
    attainable_throughput,
    dot_product_core,
    effective_throughput_with_blocking,
    match_check,
    min_find,
    predict_cycles,
    roofline_sweep,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSample",
    "CordicConfig",
    "Descriptor",
    "DescriptorFormatError",
    "DescriptorSet",
    "FxSample",
    "MinPairEntry",
    "PipelineConfig",
    "QFormat",
    "RooflinePoint",
    "RunReport",
    "UQ1_15",
    "UQ2_14",
    "attainable_throughput",
    "cordic_arccos",
    "dot_product",
    "dot_product_core",
    "effective_throughput_with_blocking",
    "generate_synthetic",
    "load_descriptor_set",
    "match_all",
    "match_check",
    "min_find",
    "predict_cycles",
    "roofline_sweep",
    "run_pipeline",
    "save_descriptor_set",
]
