"""Composed key-derivation pipeline: minutiae -> template -> DH keys.

Thin glue over the stage modules so the protocol, the simulator, the
evaluation harness and the CLI all run the exact same path. Every key pair
on this path lives in the RFC 3526 2048-bit MODP group.
"""

from __future__ import annotations

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
    "revocable_template",
    "private_key_from_minutiae",
    "keypair_from_minutiae",
    "pair_session_key",
]


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
    prv_a, pub_a = keypair_from_minutiae(mset_a, cfg, tkey_a)
    prv_b, pub_b = keypair_from_minutiae(mset_b, cfg, tkey_b)
    k_a = shared_secret(RFC3526_2048, prv_a, pub_b)
    k_b = shared_secret(RFC3526_2048, prv_b, pub_a)
    if k_a != k_b:
        raise AssertionError("DH directions disagree")
    return session_key(k_a, session_id)
