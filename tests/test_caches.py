"""Every cached function in the library returns a hashable value and
saves hashing.

An `lru_cache`d function hands the same result object to every caller in
the process, so a race sweep's interleavings share it.  A hashable result
(ints, tuples, frozen dataclasses with no list inside) cannot carry a
mutation from one run into the next.  A cache costs a hash of its arguments
on every lookup, so a function that hashes nothing itself gets none.  A new
cached function must get sample arguments here before these tests pass.
"""
import importlib
import pkgutil

import bridgemix
from bridgemix import field_hash
from bridgemix.field_hash import P, make_params
from bridgemix.lightclient import mine_header

PARAMS = make_params(8)
HEADER, _ = mine_header(0, 0, 1, P >> 2, PARAMS)

SAMPLE_ARGS = {
    "bridgemix.field_hash.make_params": (8,),
    "bridgemix.merkle.zero_subtree_roots": (3, PARAMS),
    "bridgemix.lightclient.mine_header": (0, 0, 1, P >> 2, PARAMS),
    "bridgemix.lightclient.header_digest": (HEADER, PARAMS),
    "bridgemix.contract.empty_state_digests": (7, PARAMS),
    "bridgemix.zkrel.zk_setup": (3, PARAMS),
    "bridgemix.zkrel.make_note": (4, 5, PARAMS),
}

# the verifier's and receiver's checks: each run computes these itself, so
# no run accepts a value that another run, or the prover, computed
UNCACHED = (
    "bridgemix.zkrel.zk_verify",
    "bridgemix.zkrel.relation_holds",
    "bridgemix.zkrel.note_hashes",
    "bridgemix.lightclient.add_header",
    "bridgemix.lightclient.add_bridge_state",
    "bridgemix.lightclient._past_view",
    "bridgemix.lightclient.state_commitment_value",
)


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


def test_every_cached_function_permutes(monkeypatch):
    found = cached_functions()
    permute = field_hash.permute
    for name, args in SAMPLE_ARGS.items():
        for cached in found.values():
            cached.cache_clear()
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(field_hash, "permute", lambda *a: calls.append(1) or permute(*a))
            found[name](*args)
        assert calls, f"{name} hashes nothing, so its cache saves nothing"


def test_verifier_checks_are_not_cached():
    found = cached_functions()
    for name in UNCACHED:
        module_name, attr = name.rsplit(".", 1)
        assert hasattr(importlib.import_module(module_name), attr), name
        assert name not in found, name
