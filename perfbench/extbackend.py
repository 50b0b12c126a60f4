"""External-command stage-2 backend named in the benchmark's registry.

    extbackend.py INPUT OUT_A OUT_B REF_A REF_B LEAK_PERCENT
        each output is (100 - LEAK_PERCENT)% of its reference plus
        LEAK_PERCENT% of the other one (rounded down), cut to the input's
        length.

Audio is mono 16-bit WAV, as the program exchanges it with backends. Only
the standard library is used, and the mix is integer arithmetic, so the
subprocess the program waits for costs little beyond interpreter start-up.
"""

import sys
import wave
from array import array


def read_frames(path) -> tuple[bytes, int]:
    with wave.open(str(path), "rb") as fh:
        if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono 16-bit PCM")
        return fh.readframes(fh.getnframes()), fh.getframerate()


def write_frames(path, frames: bytes, rate: int) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(frames)


def to_samples(frames: bytes) -> array:
    samples = array("h", frames)
    if sys.byteorder == "big":  # WAV data is little-endian
        samples.byteswap()
    return samples


def to_frames(samples: array) -> bytes:
    if sys.byteorder == "big":
        samples.byteswap()
    return samples.tobytes()


def blend(own: array, other: array, leak_percent: int, n: int) -> array:
    keep = 100 - leak_percent
    return array("h", [(keep * x + leak_percent * y) // 100
                       for x, y in zip(own[:n], other[:n])])


def main(argv) -> int:
    in_path, out_1, out_2, ref_a_path, ref_b_path, leak = argv
    frames, rate = read_frames(in_path)
    leak = int(leak)
    a = to_samples(read_frames(ref_a_path)[0])
    b = to_samples(read_frames(ref_b_path)[0])
    n = len(frames) // 2
    write_frames(out_1, to_frames(blend(a, b, leak, n)), rate)
    write_frames(out_2, to_frames(blend(b, a, leak, n)), rate)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
