"""Send the bundled four-gray image over the simulated noisy link.

Each pixel is one dibit, each dibit one frame: the sender announces the
frame, the receiver arms its window, one entangled pair carries the two
bits, and the receiver's verdict (or an erasure) becomes the received
pixel.  It first prints frame 0's three wire messages as the protocol's
sender and receiver machines exchange them.  Writes sent.ppm, received.ppm
and erasures.bin (one flag per frame, packed four per byte, as
`fibersdc transfer` writes it) into demo_out/ next to this script, so the
two images can be compared in any image viewer, and reads the flags back.
"""

from pathlib import Path

from fibersdc import (
    DEFAULT_INTERFEROMETER,
    DEFAULT_TIMING,
    TRANSFER_DRIFT,
    TRANSFER_SOURCE,
    ReceiverMachine,
    SenderMachine,
    decode_message,
    dibits_to_raster,
    encode_message,
    image_fidelity,
    make_demo_image,
    pack_dibits,
    raster_to_dibits,
    run_session,
    unpack_dibits,
    write_ppm,
)

outdir = Path(__file__).resolve().parent / "demo_out"
outdir.mkdir(exist_ok=True)

image = make_demo_image()
dibits = raster_to_dibits(image)
print(f"payload: {image.width}x{image.height} pixels, "
      f"{len(dibits)} frames, {len(pack_dibits(dibits))} packed bytes")

# Frame 0 on the wire: the sans-io machines exchange encoded messages.
sender, receiver = SenderMachine(len(dibits)), ReceiverMachine(len(dibits))
((_, request),) = sender.start()
((_, ack),) = receiver.handle_message(decode_message(encode_message(request))[0])
assert sender.handle_message(decode_message(encode_message(ack))[0]) == [("transmit", 0)]
((_, receipt),) = receiver.close_window(0)  # the first detection closes the window
sender.handle_message(decode_message(encode_message(receipt))[0])
for msg in (request, ack, receipt):
    print(f"wire: {msg.kind.name:<12} frame={msg.frame_index} {encode_message(msg).hex()}")
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
(outdir / "erasures.bin").write_bytes(pack_dibits(result.erasures))
flags = unpack_dibits((outdir / "erasures.bin").read_bytes(), len(dibits))
assert flags == [int(e) for e in result.erasures]

s = result.stats
print(f"\nimage fidelity:  {image_fidelity(image, received):.4f}")
print(f"erasures:        {s.erasure_count} "
      f"(of which {s.timeout_count} empty windows)")
print(f"link time:       {s.elapsed_s:.1f} s simulated, "
      f"{s.recalibrations} recalibration pauses")
print(f"throughput:      {s.throughput_bits_per_s:.3f} bits/s")
print(f"\nwrote {outdir / 'sent.ppm'}")
print(f"wrote {outdir / 'received.ppm'}")
print(f"wrote {outdir / 'erasures.bin'}, read back {sum(flags)} erased frames")
