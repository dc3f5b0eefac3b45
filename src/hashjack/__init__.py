"""Retweet-network polarisation and hashtag-hijacking analysis toolkit."""

__version__ = "0.1.0"

from .community import CommunityPartition, louvain, modularity
from .graph import (
    AccountRegistry,
    RetweetNetwork,
    UndirectedGraph,
    build_network,
    build_networks,
    undirected_projection,
)
from .ingest import (
    CorpusStats,
    TweetRecord,
    corpus_stats,
    parse_records,
    split_streams,
)
from .labeling import (
    ClusterLabeling,
    PartisanAssignment,
    label_by_seeds,
    manual_labeling,
    partisans,
    top_retweeted,
)
from .metrics import (
    cluster_composition,
    concentration,
    polarisation,
    polarisation_shift,
)
from .odds import (
    ContingencyTable2x2,
    HashjackEstimate,
    contingency,
    hashjack_matrix,
    odds_ratio,
)
from .synth import GroundTruth, SynthConfig, generate, planted_partition_graph

__all__ = [
    "AccountRegistry",
    "ClusterLabeling",
    "CommunityPartition",
    "ContingencyTable2x2",
    "CorpusStats",
    "GroundTruth",
    "HashjackEstimate",
    "PartisanAssignment",
    "RetweetNetwork",
    "SynthConfig",
    "TweetRecord",
    "UndirectedGraph",
    "build_network",
    "build_networks",
    "cluster_composition",
    "concentration",
    "contingency",
    "corpus_stats",
    "generate",
    "hashjack_matrix",
    "label_by_seeds",
    "louvain",
    "manual_labeling",
    "modularity",
    "odds_ratio",
    "parse_records",
    "partisans",
    "planted_partition_graph",
    "polarisation",
    "polarisation_shift",
    "split_streams",
    "top_retweeted",
]
