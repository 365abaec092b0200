"""Graph records that break the record rule of ``graphkd.graphs``.

Each entry maps a name to ``(edit, message)``. ``edit(record, nodes)``
changes one record in place: ``record`` holds its sample id, split, group
and label, and ``nodes`` is its list of node dicts with at least "kind" and
"id" (a caller may carry more keys, such as the embedding, along with each
node). ``message`` is a fragment of the error that the writer and both
readers must raise. The same table is applied to the JSON lines, to the
companion and to ``write_graphs``, wherever the encoding can express it.
"""


def _set(**fields):
    return lambda record, nodes: record.update(fields)


def _append(field, text):
    return lambda record, nodes: record.update({field: record[field] + text})


def _move_to_front(index):
    return lambda record, nodes: nodes.insert(0, nodes.pop(index))


def _surrogate_node_id(record, nodes):
    nodes[1]["id"] += "\udfff"


RECORD_MUTATIONS = {
    "label-float": (_set(label=1.7), "label vocabulary"),
    "label-bool": (_set(label=True), "label vocabulary"),
    "label-string": (_set(label="2"), "label vocabulary"),
    "commonsense-first": (_move_to_front(-1), "node kinds"),
    "swapped-content": (_move_to_front(1), "node kinds"),
    "no-nodes": (lambda record, nodes: nodes.clear(), "node kinds"),
    "surrogate-group": (_append("group", "\ud800"), "surrogate"),
    "surrogate-sample-id": (_append("sample_id", "\udfff"), "surrogate"),
    "surrogate-node-id": (_surrogate_node_id, "surrogate"),
    "number-split": (_set(split=7), "unknown split 7"),
    "unknown-split": (_set(split="tst"), "unknown split 'tst'"),
}
