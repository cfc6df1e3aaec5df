"""Dataset registry: deterministic synthetic analogues of the paper's datasets.

The paper evaluates on 14 real KONECT graphs (Table 1) plus Erdos–Renyi
synthetic graphs.  The real graphs cannot be downloaded in this offline
environment and are far too large for a pure-Python branch-and-bound anyway,
so each of them is replaced by a *scaled-down synthetic analogue* that keeps
the characteristics the algorithms respond to:

* sparse backgrounds with skewed degree distributions (Barabasi–Albert) or
  near-uniform sparse backgrounds (Erdos–Renyi), mirroring the original
  domain (collaboration, social, web, road, k-mer, ...),
* a controllable number of planted gamma-quasi-cliques whose sizes straddle
  the default theta, so the default settings return a non-trivial number of
  MQCs, and
* per-dataset default gamma / theta in the same spirit as the paper
  (gamma = 0.9 for most, 0.96 for the densest, 0.51 for the road-like graphs).

Every dataset is fully deterministic (fixed seeds), and the paper's original
Table 1 statistics are retained alongside for the experiment reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graph.generators import barabasi_albert, erdos_renyi_gnm, planted_quasi_clique
from ..graph.graph import Graph


@dataclass(frozen=True)
class PaperStats:
    """The columns of the paper's Table 1 for the original real dataset."""

    vertices: int
    edges: int
    max_degree: int
    degeneracy: int
    theta_default: int
    gamma_default: float
    mqc_count: int


@dataclass(frozen=True)
class DatasetSpec:
    """A synthetic analogue of one of the paper's datasets."""

    name: str
    description: str
    background: str            # "ba" (skewed degrees) or "er" (uniform sparse)
    vertices: int
    background_density: float  # |E| / |V| of the background graph
    planted_sizes: tuple[int, ...]
    planted_gamma: float
    default_gamma: float
    default_theta: int
    seed: int
    paper: PaperStats
    tags: tuple[str, ...] = field(default_factory=tuple)

    def build(self) -> Graph:
        """Materialise the dataset graph deterministically."""
        rng = random.Random(self.seed)
        if self.background == "ba":
            attachment = max(1, int(round(self.background_density)))
            graph = barabasi_albert(self.vertices, attachment, seed=rng.randrange(2 ** 31))
        elif self.background == "er":
            edges = int(round(self.background_density * self.vertices))
            graph = erdos_renyi_gnm(self.vertices, edges, seed=rng.randrange(2 ** 31))
        else:
            raise ValueError(f"unknown background model {self.background!r}")
        start = 0
        for size in self.planted_sizes:
            members = range(start, min(start + size, self.vertices))
            planted_quasi_clique(graph, list(members), self.planted_gamma,
                                 seed=rng.randrange(2 ** 31))
            start += size + 3  # small gap so planted groups do not overlap
        return graph


def _spec(name, description, background, vertices, density, planted, planted_gamma,
          gamma, theta, seed, paper, tags=()):
    return DatasetSpec(
        name=name, description=description, background=background, vertices=vertices,
        background_density=density, planted_sizes=tuple(planted),
        planted_gamma=planted_gamma, default_gamma=gamma, default_theta=theta,
        seed=seed, paper=paper, tags=tuple(tags))


#: The registry, keyed by dataset name (lower-case, as in Table 1).
REGISTRY: dict[str, DatasetSpec] = {spec.name: spec for spec in [
    _spec("ca-grqc", "Collaboration network analogue (Ca-GrQC)", "ba", 260, 2.8,
          [10, 9, 9, 8, 8], 0.92, 0.9, 7, 101,
          PaperStats(5242, 14496, 81, 43, 10, 0.9, 1665), tags=("default-figure",)),
    _spec("opsahl", "Forum interaction analogue (Opsahl)", "er", 180, 5.3,
          [12, 11, 10, 9], 0.92, 0.9, 8, 102,
          PaperStats(2939, 15677, 473, 28, 20, 0.9, 34508)),
    _spec("condmat", "Collaboration network analogue (CondMat)", "ba", 320, 4.4,
          [10, 9, 9, 8], 0.92, 0.9, 7, 103,
          PaperStats(39577, 175691, 278, 29, 10, 0.9, 7222)),
    _spec("enron", "Email network analogue (Enron)", "ba", 300, 5.0,
          [13, 12, 11, 10], 0.93, 0.9, 9, 104,
          PaperStats(36692, 183831, 1383, 43, 23, 0.9, 200), tags=("default-figure",)),
    _spec("douban", "Social network analogue (Douban)", "ba", 360, 2.1,
          [9, 9, 8], 0.92, 0.9, 7, 105,
          PaperStats(154908, 327162, 287, 15, 12, 0.9, 26)),
    _spec("wordnet", "Lexical network analogue (WordNet)", "ba", 340, 4.5,
          [11, 10, 9, 9], 0.92, 0.9, 8, 106,
          PaperStats(146005, 656999, 1008, 31, 14, 0.9, 2515), tags=("default-figure",)),
    _spec("twitter", "Sparse follower network analogue (Twitter)", "ba", 420, 1.8,
          [7, 7, 6], 0.92, 0.9, 5, 107,
          PaperStats(465017, 833540, 677, 30, 6, 0.9, 11)),
    _spec("hyves", "Social network analogue (Hyves)", "ba", 400, 2.0,
          [12, 11, 10], 0.93, 0.9, 9, 108,
          PaperStats(1402673, 2777419, 31883, 39, 23, 0.9, 114), tags=("default-figure",)),
    _spec("trec", "Web document network analogue (Trec)", "ba", 380, 4.2,
          [14, 13, 12, 11], 0.97, 0.96, 10, 109,
          PaperStats(1601787, 6679248, 25609, 140, 50, 0.96, 682736)),
    _spec("flixster", "Social rating network analogue (Flixster)", "ba", 400, 3.1,
          [13, 12, 11], 0.97, 0.96, 10, 110,
          PaperStats(2523386, 7918801, 1474, 123, 35, 0.96, 22853)),
    _spec("pokec", "Social network analogue (Pokec)", "ba", 360, 6.0,
          [13, 12], 0.92, 0.9, 10, 111,
          PaperStats(1632803, 22301964, 20518, 47, 32, 0.9, 7), tags=("default-figure",)),
    _spec("fullusa", "Road network analogue (FullUSA)", "er", 500, 1.2,
          [6, 6, 5], 0.6, 0.51, 4, 112,
          PaperStats(23947347, 28854312, 9, 3, 3, 0.51, 35)),
    _spec("kmer", "K-mer overlap graph analogue (Kmer)", "er", 520, 1.05,
          [8, 7, 7], 0.6, 0.51, 6, 113,
          PaperStats(67716231, 69389281, 35, 6, 10, 0.51, 146)),
    _spec("uk2002", "Web crawl analogue (UK2002)", "ba", 450, 6.5,
          [18, 16, 15], 0.97, 0.96, 12, 114,
          PaperStats(18483186, 261787258, 194955, 943, 450, 0.96, 6)),
]}

#: The four datasets the paper uses for the parameter-sweep figures.
DEFAULT_FIGURE_DATASETS = ("enron", "wordnet", "hyves", "pokec")


def dataset_names() -> list[str]:
    """Return every registered dataset name in Table 1 order."""
    return list(REGISTRY)


def get_spec(name: str) -> DatasetSpec:
    """Return the specification of a registered dataset."""
    key = name.lower()
    if key not in REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; known: {', '.join(REGISTRY)}")
    return REGISTRY[key]


def load_dataset(name: str) -> Graph:
    """Build and return the synthetic analogue graph of a registered dataset."""
    return get_spec(name).build()


def load_prepared(name: str):
    """Build a registered dataset as an engine :class:`~repro.engine.PreparedGraph`.

    Convenience for query-engine workloads: the returned prepared graph
    carries the dataset name (shown by ``repro query --explain`` and
    ``repro engine stats``) and memoizes the preprocessing across every query
    made against it.
    """
    from ..engine.prepared import PreparedGraph  # lazy: engine builds on datasets users

    return PreparedGraph(load_dataset(name), name=get_spec(name).name)


def default_parameters(name: str) -> tuple[float, int]:
    """Return the (gamma, theta) defaults of a registered dataset."""
    spec = get_spec(name)
    return spec.default_gamma, spec.default_theta
