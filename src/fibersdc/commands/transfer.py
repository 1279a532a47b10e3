"""`fibersdc transfer`: send a four-gray image over the simulated link.

It loads the settings, the session (`fibersdc.protocol`), the sampler,
the kernel and the image codec.  The session is computed in closed form,
so neither the wire codec and state machines (`fibersdc.wire`) nor the
timed run (`fibersdc.noise`) load.
"""

from ..configs import DEFAULT_INTERFEROMETER, merged_settings, resolved_settings
from ..imagecodec import (
    dibits_to_raster,
    image_fidelity,
    make_demo_image,
    pack_dibits,
    raster_to_dibits,
    read_ppm,
    write_ppm,
)
from ..protocol import run_session


def run(args, outdir):
    source, drift, timing = merged_settings(args)
    if args.image:
        image = read_ppm(args.image)
        image_name = str(args.image)
    else:
        image = make_demo_image()
        image_name = "bundled:demo"
    dibits = raster_to_dibits(image)
    result = run_session(dibits, source, drift, DEFAULT_INTERFEROMETER, timing, args.seed)
    received = dibits_to_raster(result.dibits, image.width, image.height)
    fidelity = image_fidelity(image, received)

    write_ppm(outdir / "received.ppm", received)
    (outdir / "erasures.bin").write_bytes(pack_dibits(result.erasures))
    stats = result.stats
    lines = [
        f"image={image_name}",
        f"frames={stats.frames}",
        f"payload_bytes={(len(dibits) + 3) // 4}",
        f"image_fidelity={fidelity:.6f}",
        f"erasures={stats.erasure_count}",
        f"timeouts={stats.timeout_count}",
        f"elapsed_s={stats.elapsed_s:.3f}",
        f"throughput_bits_per_s={stats.throughput_bits_per_s:.6f}",
        f"recalibrations={stats.recalibrations}",
    ]
    for label in sorted(stats.verdict_counts):
        lines.append(f"verdicts_{label}={stats.verdict_counts[label]}")
    settings = resolved_settings((source, drift, timing), image=image_name)
    return "transfer_report.txt", lines, settings
