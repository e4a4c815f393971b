"""Composed key-derivation pipeline: minutiae -> template -> DH keys.

Thin glue over the stage modules so the protocol, the simulator, the
evaluation harness and the CLI all run the exact same path. Every key pair
on this path lives in the RFC 3526 2048-bit MODP group.

The two parties' derivations read only their own fingerprint and
transformation key, so :func:`side_by_side` runs them at once, as two hosts
would, with the same bytes as serial derivation. Most of their time is in
calls that release the GIL: the X9.63 KDF, OpenSSL's modexp, NumPy's loops.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

from .features import FeatureBitString, QuantizationConfig, extract_features
from .keyagree import (
    PrivateKey,
    PublicKey,
    RFC3526_2048,
    SessionKey,
    derive_private_key,
    public_key,
    session_key,
    shared_secret,
)
from .minutiae import MinutiaeSet
from .transform import RevocableTemplate, TransformationKey, permute

__all__ = [
    "side_by_side",
    "revocable_template",
    "private_key_from_minutiae",
    "keypair_from_minutiae",
    "pair_session_key",
]

_worker = None  # the one-worker ThreadPoolExecutor, made on first use
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    # a forked child inherits the executor but not its thread, so work
    # submitted to it would never run
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def side_by_side(first: Callable[[], object], second: Callable[[], object]) -> tuple:
    """``(first(), second())``, with ``second`` run in a worker thread while
    ``first`` runs in the caller.

    The one worker thread is started on first use. If ``first`` raises, its
    exception propagates only after ``second`` has finished, so nothing
    started here outlives the call; otherwise ``second``'s exception, if
    any, propagates. ``second`` must not itself call this function: the one
    worker would wait for itself.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            # imported here, since it loads logging: a process that never
            # splits work, such as ``biokex eval``, carries neither
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="biokex-side")
    future = _worker.submit(second)
    try:
        result = first()
    except BaseException:
        future.exception()  # waits for second to finish
        raise
    return result, future.result()


def revocable_template(
    mset: MinutiaeSet, cfg: QuantizationConfig, tkey: TransformationKey
) -> RevocableTemplate:
    return permute(extract_features(mset, cfg), tkey)


def private_key_from_minutiae(
    mset: MinutiaeSet, cfg: QuantizationConfig, tkey: TransformationKey
) -> PrivateKey:
    return derive_private_key(revocable_template(mset, cfg, tkey))


def keypair_from_minutiae(
    mset: MinutiaeSet, cfg: QuantizationConfig, tkey: TransformationKey
) -> tuple[PrivateKey, PublicKey]:
    prv = private_key_from_minutiae(mset, cfg, tkey)
    return prv, public_key(RFC3526_2048, prv)


def pair_session_key(
    mset_a: MinutiaeSet,
    tkey_a: TransformationKey,
    mset_b: MinutiaeSet,
    tkey_b: TransformationKey,
    cfg: QuantizationConfig,
    session_id: int = 0,
) -> SessionKey:
    """Run both sides of the exchange and return the agreed session key.

    Raises if the two directions disagree, which would indicate a broken
    key; they are mathematically equal otherwise.
    """
    (prv_a, pub_a), (prv_b, pub_b) = side_by_side(
        lambda: keypair_from_minutiae(mset_a, cfg, tkey_a),
        lambda: keypair_from_minutiae(mset_b, cfg, tkey_b),
    )
    k_a, k_b = side_by_side(
        lambda: shared_secret(RFC3526_2048, prv_a, pub_b),
        lambda: shared_secret(RFC3526_2048, prv_b, pub_a),
    )
    if k_a != k_b:
        raise AssertionError("DH directions disagree")
    return session_key(k_a, session_id)
