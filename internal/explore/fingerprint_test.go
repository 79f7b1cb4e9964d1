package explore

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"ftsvm/internal/obs"
)

// TestFingerprintMatchesFNV pins the inline fingerprint to hash/fnv's
// FNV-1a over the 21-byte little-endian event encoding it replaced, so
// recorded fingerprints stay bit-identical.
func TestFingerprintMatchesFNV(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	want := fnv.New64a()
	got := fnvOffset64
	for i := 0; i < 1000; i++ {
		e := obs.Event{TimeNs: r.Int63() - r.Int63(), Seq: r.Int63() - r.Int63(),
			Node: r.Int31() - r.Int31(), Kind: obs.Kind(r.Intn(256))}
		var buf [21]byte
		for b := 0; b < 8; b++ {
			buf[b] = byte(e.TimeNs >> (8 * b))
			buf[8+b] = byte(e.Seq >> (8 * b))
		}
		for b := 0; b < 4; b++ {
			buf[16+b] = byte(e.Node >> (8 * b))
		}
		buf[20] = byte(e.Kind)
		want.Write(buf[:])
		hashEvent(&got, e)
		if uint64(got) != want.Sum64() {
			t.Fatalf("event %d: fingerprint %016x, hash/fnv %016x", i, uint64(got), want.Sum64())
		}
	}
}

// TestHashEventAllocFree pins the reason the fingerprint is inline:
// folding a recorded event allocates nothing.
func TestHashEventAllocFree(t *testing.T) {
	h := fnvOffset64
	e := obs.Event{TimeNs: 12345, Seq: 7, Node: 3, Kind: obs.KLockHeld}
	if n := testing.AllocsPerRun(100, func() { hashEvent(&h, e) }); n != 0 {
		t.Fatalf("hashEvent allocates %v times per event", n)
	}
}
