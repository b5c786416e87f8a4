"""Every cached function in the library returns a hashable value.

An `lru_cache`d function hands the same result object to every caller in
the process, so a race sweep's interleavings share it.  A hashable result
(ints, tuples, frozen dataclasses with no list inside) cannot carry a
mutation from one run into the next.  A new cached function must get sample
arguments here before this test passes.
"""
import importlib
import pkgutil

import bridgemix
from bridgemix.field_hash import P, make_params
from bridgemix.lightclient import mine_header

PARAMS = make_params(8)
HEADER, _ = mine_header(0, 0, 1, P >> 2, PARAMS)

SAMPLE_ARGS = {
    "bridgemix.field_hash.make_params": (8,),
    "bridgemix.field_hash.params_digest": (PARAMS,),
    "bridgemix.merkle.zero_subtree_roots": (3, PARAMS),
    "bridgemix.lightclient.mine_header": (0, 0, 1, P >> 2, PARAMS),
    "bridgemix.lightclient.header_digest": (HEADER, PARAMS),
    "bridgemix.zkrel.zk_setup": (3, PARAMS),
}


def cached_functions() -> dict:
    """Qualified name -> function, for each cached function a library module defines."""
    found = {}
    for info in pkgutil.iter_modules(bridgemix.__path__, "bridgemix."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = value
    return found


def test_every_cached_function_returns_a_hashable_value():
    found = cached_functions()
    assert sorted(found) == sorted(SAMPLE_ARGS)
    for name, fn in found.items():
        hash(fn(*SAMPLE_ARGS[name]))
