package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"bftkit/internal/kvstore"
)

// keyspace is the number of distinct keys every workload draws from.
const keyspace = 1024

// valuePool is the size of the seeded random block values are cut from.
const valuePool = 1 << 20

// generator produces a seeded operation stream over one keyspace and
// keeps the model the system's answers are checked against. The system
// under test sees only the encoded operations.
//
// Checking replies of a windowed closed loop needs care: with several
// operations in flight the system may order them differently from the
// generator. The stream therefore never reuses a key within `spacing`
// consecutive operations, so operations that can be in flight together
// touch distinct keys and the expected result of each is independent of
// how the system interleaves them.
type generator struct {
	rng       *rand.Rand
	prefix    string
	valueSize int
	readShare float64 // fraction of operations that are Gets
	spacing   int

	pool     []byte
	model    [keyspace][]byte // current value per key; nil = absent
	lastUsed [keyspace]int    // op index of the key's last use (0 = never)
	issued   int
}

// op is one generated operation with its expected result.
type op struct {
	key    int
	raw    []byte // kvstore encoding handed to the system
	expect []byte
}

// newPool returns the seeded random block a run's generators share.
func newPool(seed int64) []byte {
	pool := make([]byte, valuePool)
	rand.New(rand.NewSource(seed)).Read(pool)
	return pool
}

func newGenerator(seed int64, pool []byte, prefix string, valueSize int, readShare float64, spacing int) *generator {
	if spacing >= keyspace {
		spacing = keyspace - 1
	}
	return &generator{
		rng:       rand.New(rand.NewSource(seed)),
		prefix:    prefix,
		valueSize: valueSize,
		readShare: readShare,
		spacing:   spacing,
		pool:      pool,
	}
}

func (g *generator) keyName(k int) string { return fmt.Sprintf("%sk%04d", g.prefix, k) }

func (g *generator) value() []byte {
	off := g.rng.Intn(len(g.pool) - g.valueSize)
	return g.pool[off : off+g.valueSize]
}

func (g *generator) put(k int) op {
	v := g.value()
	g.model[k] = v
	return op{key: k, raw: kvstore.Put(g.keyName(k), v), expect: kvstore.ResultOK}
}

// prefill returns one Put per key, in key order, so reads never miss.
func (g *generator) prefill() []op {
	ops := make([]op, keyspace)
	for k := range ops {
		g.issued++
		g.lastUsed[k] = g.issued
		ops[k] = g.put(k)
	}
	return ops
}

// next draws the next operation of the stream.
func (g *generator) next() op {
	g.issued++
	k := g.rng.Intn(keyspace)
	for g.lastUsed[k] != 0 && g.issued-g.lastUsed[k] <= g.spacing {
		k = g.rng.Intn(keyspace)
	}
	g.lastUsed[k] = g.issued
	if g.readShare > 0 && g.rng.Float64() < g.readShare {
		expect := g.model[k]
		if expect == nil {
			expect = kvstore.ResultNotFound
		}
		return op{key: k, raw: kvstore.Get(g.keyName(k)), expect: expect}
	}
	return g.put(k)
}

// readBack returns one Get per key whose expected result is the model's
// final value — the end-of-window check that every acknowledged write
// took effect and nothing else did.
func (g *generator) readBack() []op {
	ops := make([]op, keyspace)
	for k := range ops {
		expect := g.model[k]
		if expect == nil {
			expect = kvstore.ResultNotFound
		}
		ops[k] = op{key: k, raw: kvstore.Get(g.keyName(k)), expect: expect}
	}
	return ops
}

func (o op) matches(result []byte) bool { return bytes.Equal(result, o.expect) }
