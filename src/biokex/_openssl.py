"""The ``ctypes`` binding to the OpenSSL that ``hashlib`` links.

``keyagree.modexp`` computes modular exponentiations through it and
``transform`` its index-stream digests; both import it from here, since
``keyagree`` imports ``transform``. The BIGNUM calls are all or nothing:
where any is missing, :func:`libcrypto` returns None and ``modexp`` uses
``pow``. The X9.63 KDF is bound apart from them by :func:`sha256_kdf`.
OpenSSL 3 declares ``ECDH_KDF_X9_62`` deprecated and builds it with its EC
module, so a build without either lacks it; only the digests then fall back
to Python.
"""

from __future__ import annotations

import ctypes
import functools

_P, _I, _N = ctypes.c_void_p, ctypes.c_int, ctypes.c_size_t
_BYTES = ctypes.c_char_p

_SIGNATURES = (
    ("BN_CTX_new", _P, ()),
    ("BN_CTX_free", None, (_P,)),
    ("BN_new", _P, ()),
    ("BN_clear_free", None, (_P,)),
    ("BN_bin2bn", _P, (_BYTES, _I, _P)),
    ("BN_bn2binpad", _I, (_P, _BYTES, _I)),
    ("BN_mod_exp_mont_consttime", _I, (_P, _P, _P, _P, _P, _P)),
    ("ERR_clear_error", None, ()),
)

_KDF_SIGNATURES = (
    ("ECDH_KDF_X9_62", _I, (_P, _N, _BYTES, _N, _BYTES, _N, _P)),
    ("EVP_sha256", _P, ()),
)


def _bind(lib, signatures) -> list:
    """Resolve and type each named function; AttributeError if one is missing."""
    fns = [getattr(lib, name) for name, _, _ in signatures]
    for fn, (_, restype, argtypes) in zip(fns, signatures):
        fn.restype = restype
        fn.argtypes = argtypes
    return fns


@functools.cache
def libcrypto():
    """Bind the BIGNUM calls, once; None if any is unavailable.

    ``dlsym`` on the ``_hashlib`` extension's handle also searches the
    libcrypto it links, so this is the OpenSSL ``hashlib`` already loaded.
    """
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        _bind(lib, _SIGNATURES)
    except (ImportError, OSError, AttributeError):
        return None
    return lib


@functools.cache
def sha256_kdf():
    """``(ECDH_KDF_X9_62, EVP_sha256())`` from :func:`libcrypto`; None if either is missing.

    Bound once, since binding sets ``argtypes`` on functions that threads
    share; clear this cache with :func:`libcrypto`'s.
    """
    try:
        kdf, sha256 = _bind(libcrypto(), _KDF_SIGNATURES)
    except AttributeError:  # also where libcrypto() is None
        return None
    return kdf, sha256()
