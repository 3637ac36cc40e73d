import cubetrees

# The library surface the README documents.  Changing it is an API change:
# update this list and the README's library section together.
DOCUMENTED = [
    "Decomposition",
    "bounds_for",
    "broadcast_metrics",
    "construct",
    "read_decomposition",
    "tree_depths",
    "verify_decomposition",
    "write_decomposition",
]


def test_all_is_the_documented_surface():
    assert sorted(cubetrees.__all__) == DOCUMENTED
    for name in cubetrees.__all__:
        assert getattr(cubetrees, name).__module__.startswith("cubetrees.")
