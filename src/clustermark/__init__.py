"""Cluster-based distortion-free statistical watermarking for token streams."""

from .clustering import (
    ClusterMap,
    ClusterMapFormatError,
    MismatchReport,
    kmeans_fit,
    load_cluster_map,
    load_embeddings,
    mismatch_rates,
    save_cluster_map,
)
from .core import (
    WatermarkCode,
    code_fingerprint,
    prf_permutation,
    prf_r,
)
from .detect import (
    DetectionReport,
    detect_aligned,
    detect_dipmark,
    detect_its,
    detect_kgw,
    detect_unigram,
    exact_binomial_pvalue,
    hoeffding_pvalue,
    hoeffding_threshold,
)
from .generate import GenerationSession, LanguageModel, generate, generate_unwatermarked
from .reweight import (
    ReweightConfig,
    SegmentTable,
    aligned_sample,
    aligned_score,
    build_segment_table,
    cluster_probs,
    dipmark_reweight,
    its_sample,
    its_score,
    kgw_reweight,
    unigram_reweight,
)
from .simenv import (
    CHANNEL_PRESETS,
    ChannelConfig,
    SyntheticModelConfig,
    apply_channel,
    attack_crop,
    attack_insert_delete,
    attack_substitute,
    build_synthetic_model,
    channel_preset,
)

__version__ = "0.1.0"
