"""The package's public names: every name in ``probtree.__all__`` is
defined, so that ``from probtree import *`` works and a deleted class
leaves no dangling export."""

import probtree


def test_every_exported_name_resolves():
    missing = [name for name in probtree.__all__ if not hasattr(probtree, name)]
    assert missing == []
    assert len(set(probtree.__all__)) == len(probtree.__all__)


def test_star_import():
    namespace = {}
    exec("from probtree import *", namespace)
    assert set(probtree.__all__) <= set(namespace)
