"""biokex: revocable symmetric session keys from fingerprint minutiae.

Pipeline: pair-minutiae features -> quantized feature bit string -> keyed
swap permutation (revocable template) -> SHA-256 private key -> DH over the
RFC 3526 2048-bit group -> SHA-256 session key. Around that sit a toy CA,
a two-party handshake, an adversarial in-process network simulator, and a
statistical evaluation harness.
"""

from .minutiae import (
    MinutiaeSet,
    PerturbationProfile,
    parse_minutiae_file,
    perturb,
    serialize_minutiae,
    synthesize_dataset,
    synthesize_subject,
)
from .features import FeatureBitString, QuantizationConfig, extract_features
from .transform import RevocableTemplate, TransformationKey, index_stream, invert, permute
from .keyagree import (
    DhGroup,
    PrivateKey,
    PublicKey,
    RFC3526_2048,
    SessionKey,
    derive_private_key,
    public_key,
    session_key,
    shared_secret,
)
from .ca import CaRegistry, Certificate, Identity, RsaKeyPair, verify_certificate
from .protocol import SessionEndpoint, WireMessage
from .netsim import AdversaryMode, AdversaryPolicy, run_session
from .evaluation import (
    ScoreSet,
    compute_roc,
    eer,
    fvc_pairings,
    shannon_entropy,
)

__version__ = "0.1.0"
