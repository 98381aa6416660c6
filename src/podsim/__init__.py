"""Precoder codebook design and link simulation for partly orthogonal
space-time codes driven by noisy quantized feedback."""

from podsim.channel import complex_gaussian, sample_directions
from podsim.codebook import (
    CodebookError,
    PrecoderCodebook,
    eigen_profile,
    hermitian_psd_part,
    load_codebook,
    project_psd_power,
    save_codebook,
)
from podsim.feedback import (
    FeedbackChannel,
    bsc_inversion_matrix,
    dominant_directions,
    load_mapping,
    mapping_cost,
    optimize_mapping,
    save_mapping,
)
from podsim.link import (
    BER_CSV_HEADER,
    BerResult,
    SimulationConfig,
    candidate_codewords,
    noise_variance,
    run_ber_sweep,
    write_ber_csv,
)
from podsim.pep import (
    EvaluationSet,
    average_pep_bound,
    build_evaluation_set,
    region_pep_bound,
)
from podsim.stbc import (
    Constellation,
    InnerDesign,
    PodStructure,
    assemble,
    get_design,
    gray_code,
    slot_alphabets,
)
from podsim.trainer import (
    TrainerConfig,
    TrainingState,
    encode_batch,
    eta_c_from_snr_db,
    fit,
    gradient,
    objective,
    range_design,
)

__all__ = [
    "BER_CSV_HEADER",
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
    "assemble",
    "average_pep_bound",
    "bsc_inversion_matrix",
    "build_evaluation_set",
    "candidate_codewords",
    "complex_gaussian",
    "dominant_directions",
    "eigen_profile",
    "encode_batch",
    "eta_c_from_snr_db",
    "fit",
    "get_design",
    "gradient",
    "gray_code",
    "hermitian_psd_part",
    "load_codebook",
    "load_mapping",
    "mapping_cost",
    "noise_variance",
    "objective",
    "optimize_mapping",
    "project_psd_power",
    "range_design",
    "region_pep_bound",
    "run_ber_sweep",
    "sample_directions",
    "save_codebook",
    "save_mapping",
    "slot_alphabets",
    "write_ber_csv",
]

__version__ = "0.1.0"
