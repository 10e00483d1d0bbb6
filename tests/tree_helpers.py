"""Tree helpers shared by the test modules."""


def leaf_set(tree, node):
    """Vertex ids under node, collected through the tree's public accessors."""
    out = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if tree.is_leaf(cur):
            out.append(tree.leaf_vertex(cur))
        else:
            stack += [tree.left(cur), tree.right(cur)]
    return frozenset(out)
