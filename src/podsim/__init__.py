"""Precoder codebook design and link simulation for partly orthogonal
space-time codes driven by noisy quantized feedback."""

from podsim.channel import sample_directions
from podsim.codebook import (
    CodebookError,
    PrecoderCodebook,
    eigen_profile,
    load_codebook,
    project_psd_power,
    save_codebook,
)
from podsim.feedback import (
    FeedbackChannel,
    bsc_inversion_matrix,
    load_mapping,
    mapping_cost,
    optimize_mapping,
    save_mapping,
)
from podsim.link import (
    BerResult,
    SimulationConfig,
    candidate_codewords,
    run_ber_sweep,
    write_ber_csv,
)
from podsim.pep import EvaluationSet, average_pep_bound, build_evaluation_set
from podsim.stbc import Constellation, InnerDesign, PodStructure, get_design
from podsim.trainer import (
    TrainerConfig,
    TrainingState,
    eta_c_from_snr_db,
    fit,
    range_design,
)

__all__ = [
    "BerResult",
    "CodebookError",
    "Constellation",
    "EvaluationSet",
    "FeedbackChannel",
    "InnerDesign",
    "PodStructure",
    "PrecoderCodebook",
    "SimulationConfig",
    "TrainerConfig",
    "TrainingState",
    "average_pep_bound",
    "bsc_inversion_matrix",
    "build_evaluation_set",
    "candidate_codewords",
    "eigen_profile",
    "eta_c_from_snr_db",
    "fit",
    "get_design",
    "load_codebook",
    "load_mapping",
    "mapping_cost",
    "optimize_mapping",
    "project_psd_power",
    "range_design",
    "run_ber_sweep",
    "sample_directions",
    "save_codebook",
    "save_mapping",
    "write_ber_csv",
]

__version__ = "0.1.0"
