"""Multi-vector late-interaction retrieval with multi-image document augmentation.

Queries and documents become sets of unit token vectors scored by summed
per-token maximum cosine similarity.  Documents are enriched with images of
the related entities mentioned in their text, fused with the text through a
cross-attention mapping layer, and served from a compressed centroid index.
A synthetic benchmark generator produces shortcut-free evaluation data for
the bundled ablation and probe harnesses.
"""

from .core import (
    ConfigError,
    DataError,
    EngineError,
    FeatureSet,
    NumericError,
    Rng,
    seeded_unit_vector,
    tokenize,
)
from .augment import (
    AugmentedDocument,
    RawDocument,
    RelatedEntity,
    TitleTable,
    augment_document,
    augment_kb,
    build_title_table,
    entity_from_image_key,
    image_key_for_entity,
    link,
    load_kb,
    save_kb,
)
from .encoder import (
    ABLATION_ROWS,
    EncoderConfig,
    EncoderFlags,
    EncoderParams,
    FileEmbeddingProvider,
    ImageFeatures,
    QueryInput,
    SeededEmbeddingProvider,
    apply_ete,
    embed_image,
    encode_corpus,
    encode_document,
    encode_query,
    init_encoder_params,
    load_params,
    save_params,
)
from .scoring import ScoredDoc, late_interaction_score, rank_exact
from .index import (
    RetrievalIndex,
    SearchParams,
    build_index,
    load_index,
    save_index,
    search,
)
from .bm25 import Bm25Index
from .datagen import (
    OneHopGraph,
    QaSample,
    RuleParaphraser,
    TargetSubgraph,
    bm25_leak_filter,
    build_onehop_graph,
    enforce_unique_gt,
    extract_target_subgraph,
    generate_samples,
    split_seen_unseen,
)
from .train import TrainConfig, TrainStats, contrastive_loss, train
from .evaluation import (
    EvalReport,
    build_distractor_map,
    distractor_recall,
    recall_at_k,
    run_ablation,
    run_shortcut_probe,
)
from .synth import BenchmarkSplits, SynthConfig, generate_benchmark, generate_kb

__version__ = "0.1.0"
