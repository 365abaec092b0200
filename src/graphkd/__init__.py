"""graphkd: heterogeneous-graph teachers distilled into raw-feature students.

The pipeline in one line: build a small graph per sample (question,
language-context, visual-context and combined V-L nodes plus retrieved
knowledge triplets), train a two-layer GCN over it, then transfer its
averaged softmax outputs into a compact student that never sees the graph.
"""

__version__ = "0.1.0"

from .autodiff import (OptimizerState, ParameterVector, Tape, Tensor, backward, gradcheck,
                       optimizer_step)
from .datagen import ManifestRecord, SynthConfig, generate_synthetic, ingest_manifest
from .distill import (DistillConfig, StudentParams, combined_loss, compute_soft_labels,
                      kd_loss, soft_target, train_student)
from .embeddings import (EmbeddingStore, Triplet, TripletStore, cosine_sim,
                         top_k_triplets, toy_embed)
from .evaluate import EvalReport, comparison_report, evaluate_model, micro_f1
from .graphs import (CooccurrenceStats, Subgraph, attach_commonsense, build_content_nodes,
                     build_edges, normalize_adjacency, pmi_weight)
from .teacher import TeacherConfig, TeacherParams, train_teacher
