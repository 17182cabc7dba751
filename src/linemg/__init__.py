"""linemg: line multigraphs, their roots, and MaxWeight link scheduling.

The package answers three related questions exactly:

1. Is this graph the line graph of a multigraph, and if so, of which one?
   (:func:`linemg.elehot`, built on twin contraction plus simple line graph
   recognition, always returning a verified root or raising with a catalog
   graph induced in the input as witness.)
2. Which induced subgraphs forbid that structure?  (:mod:`linemg.forbidden`
   ships both minimal catalogs and can re-derive the multigraph one from
   scratch.)
3. How do you exploit the structure to schedule wireless links in polynomial
   time?  (:mod:`linemg.scheduler` turns MaxWeight scheduling over a conflict
   graph into one matching computation per slot.)
"""

from .graphcore import (
    Edge,
    Embedding,
    GraphFormatError,
    Multigraph,
    SimpleGraph,
    connected_components,
    find_induced,
    geometric_graph,
    is_isomorphic,
    parse_graph,
    serialize_graph,
    true_twin_classes,
)
from .linegraph import (
    ForbiddenWitness,
    LineGraphResult,
    NotLineGraph,
    RootResult,
    VertexEdgeMap,
    conflict_graph,
    graph_power,
    line_graph,
    recognize_line_graph,
)
from .elehot import (
    NotLineMultigraph,
    TwinPartition,
    contract_twins,
    elehot,
    expand_root,
    verify_root,
)
from .forbidden import (
    Catalog,
    CatalogEntry,
    CliqueCover,
    derive_minimal_forbidden,
    enumerate_connected,
    find_clique_cover,
    krausz_oracle,
    load_catalog,
)
from .matching import (
    Matching,
    WeightedReduction,
    brute_force_mwis,
    brute_force_mwm,
    max_weight_matching,
    reduce_multigraph,
)
from .scheduler import (
    EXACT_MWIS,
    GREEDY,
    ROOT_MWM,
    Pipeline,
    SlotLog,
    SlotRecord,
    build_pipeline,
    greedy_mwis,
    schedule_slot,
    simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
