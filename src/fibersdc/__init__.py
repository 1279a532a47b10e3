"""Dense coding over fiber with a complete linear-optics Bell-class analyzer.

The package simulates the full chain: dibit encoding on one photon of an
entangled pair, the time-multiplexed analyzer that resolves all four Bell
classes with threshold detectors, realistic noise (source infidelity,
loop-phase drift, accidentals), channel-capacity analysis of the measured
verdict statistics, and a framed transfer protocol that moves four-gray
images over the simulated link.

Importing the package loads no submodule.  Each public name is looked up
in `_EXPORTS` on first access (PEP 562), which imports the one submodule
that defines it.
"""

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "capacity": (
        "CapacityResult", "bootstrap_ci", "channel_capacity", "estimate_conditionals",
        "mutual_information", "partial_bsm_channel",
    ),
    "configs": (
        "CHARACTERIZATION_DRIFT", "CHARACTERIZATION_SOURCE", "DEFAULT_INTERFEROMETER",
        "DEFAULT_TIMING", "SECONDS_PER_STATE", "TRANSFER_DRIFT", "TRANSFER_SOURCE",
        "DriftConfig", "InterferometerConfig", "SourceConfig", "TimingConfig",
    ),
    "errors": ("ConfigError", "FiberSdcError", "ProtocolError", "StateError"),
    "imagecodec": (
        "ImageRaster", "dibits_to_raster", "image_fidelity", "make_demo_image",
        "pack_dibits", "raster_to_dibits", "read_ppm", "unpack_dibits", "write_ppm",
    ),
    "interferometer": (
        "beamsplitter", "classify", "evolve_bsm", "load_reference_outputs",
        "measurement_distribution", "verdict_distribution",
    ),
    "kernel": ("BELL_ORDER", "BellState", "DetectionOutcome", "load_counts",
               "load_reference_counts", "save_counts", "verdict_label"),
    "noise": ("generate_event_stream", "tally_verdicts"),
    "protocol": ("SessionResult", "SessionStats", "run_session"),
    "sampler": ("PhaseWalk",),
    "seeds": ("substream",),
    "states": (
        "PhotonMode", "TwoPhotonState", "align_global_phase", "apply_pauli", "dump_state",
        "encode_dibit", "make_bell", "overlap", "parse_state", "state_fidelity",
    ),
    "wire": (
        "Message", "MessageKind", "ReceiverMachine", "SenderMachine", "decode_message",
        "encode_message",
    ),
}
"""The public names, by the submodule that defines them; the submodules
are not part of the API."""

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
