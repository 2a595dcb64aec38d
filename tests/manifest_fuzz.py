"""A hypothesis strategy that damages a JSON manifest the way hand edits
and broken writers do, for the loader fuzz tests of datasets
(``test_data.py``) and checkpoints (``test_model.py``)."""

from __future__ import annotations

import copy

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=5)


def near(value) -> list:
    """Values an edit of ``value`` tends to leave: the same number or text
    in another JSON type, a neighbour, a sign flip, an emptied value."""
    out = [None, "", [], {}, str(value), [value]]
    if isinstance(value, bool):
        out += [int(value), float(value), not value]
    elif isinstance(value, (int, float)):
        out += [float(value), -value, value + 1, value - 1, 0, 2**40]
    elif isinstance(value, str):
        out += [value.upper(), value + "x", f"../{value}", f"sub/{value}", value + "\0"]
    elif isinstance(value, list):
        out += [value[:-1], value + value[-1:], value[::-1]]
    elif isinstance(value, dict):
        out += [list(value), list(value.values())]
    return out


@st.composite
def mutated(draw, manifest: dict, start=()):
    """A deep copy of ``manifest`` with one to three edits. Each edit walks
    down from ``manifest[start[0]][start[1]]...`` through random keys and
    list entries to one value, then replaces it with a nearby value or any
    JSON value, or deletes it."""
    out = copy.deepcopy(manifest)
    for _ in range(draw(st.integers(1, 3))):
        node = out
        for key in start:
            node = node.get(key) if isinstance(node, dict) else None
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(("near", "any", "delete")))
            if action == "delete":
                del node[key]
            elif action == "near":
                node[key] = draw(st.sampled_from(near(child)))
            else:
                node[key] = draw(JSON_VALUES)
            break
    return out
