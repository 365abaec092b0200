"""graphkd: heterogeneous-graph teachers distilled into raw-feature students.

The pipeline in one line: build a small graph per sample (question,
language-context, visual-context and combined V-L nodes plus retrieved
knowledge triplets), train a two-layer GCN over it, then transfer its
averaged softmax outputs into a compact student that never sees the graph.

Importing the package loads none of its modules; import the one you use,
for example ``from graphkd import teacher`` or ``from graphkd.graphs import
read_graphs``. The ``graphkd`` command loads only what its subcommand runs.
"""

__version__ = "0.1.0"
