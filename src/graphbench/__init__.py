"""Deterministic graph-reasoning benchmark generator and evaluation harness.

The pipeline: seeded random graphs -> exact gold answers -> rendered prompts
under six strategies -> model responses (HTTP or offline mocks) -> extracted
answers -> accuracy tables split by task, graph size, and strategy.
"""

from .client import (
    CacheMissError,
    ClientError,
    HttpChatBackend,
    MalformedResponseError,
    ModelConfig,
    RateLimitedError,
    RequestTimeout,
    ResponseCache,
    Transcript,
    make_backend,
    run_prompts,
)
from .dataset import (
    DatasetFormatError,
    TaskInstance,
    assemble_dataset,
    build_instances,
    content_digest,
    load_dataset,
    save_dataset,
)
from .evaluate import (
    EvalRecord,
    ExtractionFailed,
    Report,
    aggregate_report,
    evaluate_response,
    render_csv,
    render_markdown,
)
from .graphs import (
    ALL_BUCKETS,
    GeneratorConfig,
    Graph,
    MEDIUM,
    SMALL,
    SizeBucket,
    derive_seed,
    gen_er,
    gen_er_dag,
    gen_random_bipartite,
)
from .oracles import (
    Answer,
    CycleDetectedError,
    OracleError,
    UnknownNodeError,
    UnreachableError,
    connected_components,
    degree,
    gold_answer,
    has_cycle,
    is_bipartite,
    neighbors,
    shortest_path_length,
    spanning_forest,
    topo_order,
    validate_spanning_tree,
    validate_topo_order,
)
from .prompts import (
    PromptBundle,
    PseudocodeStyle,
    Strategy,
    pseudocode_for,
    render_prompt,
    standard_strategies,
)
from .tasks import (
    TASK_SPECS,
    AnswerKind,
    Task,
)

__version__ = "0.1.0"
