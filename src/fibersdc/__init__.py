"""Dense coding over fiber with a complete linear-optics Bell-class analyzer.

The package simulates the full chain: dibit encoding on one photon of an
entangled pair, the time-multiplexed analyzer that resolves all four Bell
classes with threshold detectors, realistic noise (source infidelity,
loop-phase drift, accidentals), channel-capacity analysis of the measured
verdict statistics, and a framed transfer protocol that moves four-gray
images over the simulated link.
"""

__version__ = "1.0.0"

from .capacity import (
    CapacityResult,
    bootstrap_ci,
    channel_capacity,
    estimate_conditionals,
    load_counts,
    load_reference_counts,
    mutual_information,
    partial_bsm_channel,
    save_counts,
)
from .configs import (
    CHARACTERIZATION_DRIFT,
    CHARACTERIZATION_SOURCE,
    DEFAULT_INTERFEROMETER,
    DEFAULT_TIMING,
    SECONDS_PER_STATE,
    TRANSFER_DRIFT,
    TRANSFER_SOURCE,
)
from .errors import ConfigError, FiberSdcError, ProtocolError, StateError
from .imagecodec import (
    ImageRaster,
    dibits_to_raster,
    image_fidelity,
    make_demo_image,
    pack_dibits,
    raster_to_dibits,
    read_ppm,
    unpack_dibits,
    write_ppm,
)
from .interferometer import (
    DetectionOutcome,
    InterferometerConfig,
    beamsplitter,
    classify,
    evolve_bsm,
    load_reference_outputs,
    measurement_distribution,
    verdict_distribution,
    verdict_label,
)
from .noise import (
    DriftConfig,
    PhaseWalk,
    SourceConfig,
    generate_event_stream,
    read_event_log,
    tally_verdicts,
)
from .protocol import (
    Message,
    MessageKind,
    ReceiverMachine,
    SenderMachine,
    SessionResult,
    SessionStats,
    TimingConfig,
    decode_message,
    encode_message,
    run_session,
)
from .seeds import substream
from .states import (
    BELL_ORDER,
    BellState,
    PhotonMode,
    TwoPhotonState,
    align_global_phase,
    apply_pauli,
    dump_state,
    encode_dibit,
    make_bell,
    overlap,
    parse_state,
    state_fidelity,
)

# The names imported above, by module; the submodules are not part of the API.
__all__ = [
    "CapacityResult", "bootstrap_ci", "channel_capacity", "estimate_conditionals",
    "load_counts", "load_reference_counts", "mutual_information", "partial_bsm_channel",
    "save_counts",
    "CHARACTERIZATION_DRIFT", "CHARACTERIZATION_SOURCE", "DEFAULT_INTERFEROMETER",
    "DEFAULT_TIMING", "SECONDS_PER_STATE", "TRANSFER_DRIFT", "TRANSFER_SOURCE",
    "ConfigError", "FiberSdcError", "ProtocolError", "StateError",
    "ImageRaster", "dibits_to_raster", "image_fidelity", "make_demo_image",
    "pack_dibits", "raster_to_dibits", "read_ppm", "unpack_dibits", "write_ppm",
    "DetectionOutcome", "InterferometerConfig", "beamsplitter", "classify",
    "evolve_bsm", "load_reference_outputs", "measurement_distribution",
    "verdict_distribution", "verdict_label",
    "DriftConfig", "PhaseWalk", "SourceConfig", "generate_event_stream",
    "read_event_log", "tally_verdicts",
    "Message", "MessageKind", "ReceiverMachine", "SenderMachine", "SessionResult",
    "SessionStats", "TimingConfig", "decode_message", "encode_message", "run_session",
    "substream",
    "BELL_ORDER", "BellState", "PhotonMode", "TwoPhotonState", "align_global_phase",
    "apply_pauli", "dump_state", "encode_dibit", "make_bell", "overlap", "parse_state",
    "state_fidelity",
]
