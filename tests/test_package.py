import fibonomial


def test_all_names_resolve():
    # A name left in __all__ after its removal breaks `from fibonomial import *`.
    assert [name for name in fibonomial.__all__ if not hasattr(fibonomial, name)] == []
