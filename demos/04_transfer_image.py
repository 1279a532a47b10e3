"""Send the bundled four-gray image over the simulated noisy link.

Each pixel is one dibit, each dibit one frame: the sender announces the
frame, the receiver arms its window, one entangled pair carries the two
bits, and the receiver's verdict (or an erasure) becomes the received
pixel.  Writes sent.ppm and received.ppm next to this script so the two
can be compared in any image viewer.
"""

from pathlib import Path

from fibersdc import (
    DEFAULT_INTERFEROMETER,
    DEFAULT_TIMING,
    TRANSFER_DRIFT,
    TRANSFER_SOURCE,
    dibits_to_raster,
    image_fidelity,
    make_demo_image,
    pack_dibits,
    raster_to_dibits,
    run_session,
    write_ppm,
)

outdir = Path(__file__).resolve().parent / "demo_out"
outdir.mkdir(exist_ok=True)

image = make_demo_image()
dibits = raster_to_dibits(image)
print(f"payload: {image.width}x{image.height} pixels, "
      f"{len(dibits)} frames, {len(pack_dibits(dibits))} packed bytes")
print("running the session...")

result = run_session(
    dibits,
    TRANSFER_SOURCE,
    TRANSFER_DRIFT,
    DEFAULT_INTERFEROMETER,
    DEFAULT_TIMING,
    master_seed=1,
)
received = dibits_to_raster(result.dibits, image.width, image.height)

write_ppm(outdir / "sent.ppm", image)
write_ppm(outdir / "received.ppm", received)

s = result.stats
print(f"\nimage fidelity:  {image_fidelity(image, received):.4f}")
print(f"erasures:        {s.erasure_count} "
      f"(of which {s.timeout_count} empty windows)")
print(f"link time:       {s.elapsed_s:.1f} s simulated, "
      f"{s.recalibrations} recalibration pauses")
print(f"throughput:      {s.throughput_bits_per_s:.3f} bits/s")
print(f"\nwrote {outdir / 'sent.ppm'}")
print(f"wrote {outdir / 'received.ppm'}")
