package lib

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// Hash maps a comparable key to a well-mixed 64-bit value for data
// exchange. Fast paths cover the key types the workloads use; anything
// else falls back to a gob+FNV encoding (correct, slower).
func Hash[K comparable](k K) uint64 { return hasherFor[K]()(k) }

// hasherFor picks K's hash from the type alone, so a connector chooses it
// once and then hashes every key without boxing it.
func hasherFor[K comparable]() func(K) uint64 {
	if h := nativeHasher[K](); h != nil {
		return h
	}
	return hashGob[K]
}

// nativeHasher is K's hash when K is one of the key types with a direct
// hash, and nil for a key that only the gob fallback can hash.
func nativeHasher[K comparable]() func(K) uint64 {
	var h any
	switch any(*new(K)).(type) {
	case int:
		h = func(k int) uint64 { return mix64(uint64(k)) }
	case int32:
		h = func(k int32) uint64 { return mix64(uint64(k)) }
	case int64:
		h = func(k int64) uint64 { return mix64(uint64(k)) }
	case uint32:
		h = func(k uint32) uint64 { return mix64(uint64(k)) }
	case uint64:
		h = mix64
	case string:
		h = hashString
	default:
		return nil
	}
	return h.(func(K) uint64)
}

// hashGob hashes the key's gob encoding. A fresh encoder per key, so the
// bytes hashed (descriptors included) depend on the key alone; only the
// buffer is reused.
func hashGob[K comparable](k K) uint64 {
	buf := hashBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(k); err != nil {
		panic(fmt.Sprintf("lib: unhashable key %T: %v", k, err))
	}
	h := mix64(fnv1a(buf.Bytes()))
	hashBufs.Put(buf)
	return h
}

var hashBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// fnv1a is 64-bit FNV-1a (hash/fnv's New64a), inlined so hashing a key
// allocates neither a hasher nor a byte copy of a string.
func fnv1a[B string | []byte](b B) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

func hashString(s string) uint64 { return mix64(fnv1a(s)) }

// mix64 is the splitmix64 finalizer: full-avalanche mixing so that modular
// reduction over worker counts spreads sequential keys evenly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pairHasher hashes a Pair by its key — the exchange function of keyed
// operators — with the key's hash chosen once, at connector construction.
// A native key type gets a hasher of its own, so hashing a pair is one call,
// not a call to the pair's hasher and another to the key's.
func pairHasher[K comparable, V any]() func(Pair[K, V]) uint64 {
	var h any
	switch any(*new(K)).(type) {
	case int:
		h = func(p Pair[int, V]) uint64 { return mix64(uint64(p.Key)) }
	case int32:
		h = func(p Pair[int32, V]) uint64 { return mix64(uint64(p.Key)) }
	case int64:
		h = func(p Pair[int64, V]) uint64 { return mix64(uint64(p.Key)) }
	case uint32:
		h = func(p Pair[uint32, V]) uint64 { return mix64(uint64(p.Key)) }
	case uint64:
		h = func(p Pair[uint64, V]) uint64 { return mix64(p.Key) }
	case string:
		h = func(p Pair[string, V]) uint64 { return hashString(p.Key) }
	default:
		hk := hashGob[K]
		return func(p Pair[K, V]) uint64 { return hk(p.Key) }
	}
	return h.(func(Pair[K, V]) uint64)
}
