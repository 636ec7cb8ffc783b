package engine

import "math"

// UserKey is who a request is for: FNV-1a over the user feature vector, the
// one identity the wire carries. The router's ring, the canary and bandit
// splits, the state cache's history hash and the feedback loop all take it
// as an opaque value and derive nothing themselves. The candidates are not
// in it, so a returning user with a fresh slate keeps their replica, canary
// side and bandit segment.
func UserKey(req *Request) uint64 { return uint64(fnvOffset64.floats(req.UserFeatures)) }

// BatchUserKey is the key of a batch envelope: the fold of its members' user
// keys, so a stable batch routes stably.
func BatchUserKey(reqs []Request) uint64 {
	h := fnvOffset64
	for i := range reqs {
		h = h.word(UserKey(&reqs[i]))
	}
	return uint64(h)
}

// historyKey hashes exactly what the user-preference encoder reads: it
// continues UserKey's fold over every behavior-sequence feature vector, with
// topic and length framing so permuted or split sequences cannot collide.
// Requests with equal historyKey encode the same state under one model
// version, whatever their candidates.
func historyKey(req *Request) uint64 {
	h := fnv64a(UserKey(req))
	for j, seq := range req.TopicSequences {
		h = h.word(uint64(int64(j))<<32 | uint64(uint32(len(seq))))
		for _, it := range seq {
			h = h.floats(it.Features)
		}
	}
	return uint64(h)
}

// fnv64a is a running FNV-1a hash: the one fold behind these keys, the skim
// and the state cache's index.
type fnv64a uint64

const fnvOffset64 fnv64a = 14695981039346656037

// octet folds one byte.
func (h fnv64a) octet(b byte) fnv64a { return (h ^ fnv64a(b)) * 1099511628211 }

// word folds v's eight bytes, little-endian.
func (h fnv64a) word(v uint64) fnv64a {
	for i := 0; i < 8; i++ {
		h = h.octet(byte(v))
		v >>= 8
	}
	return h
}

// floats folds each float's IEEE-754 bits as a word.
func (h fnv64a) floats(fs []float64) fnv64a {
	for _, f := range fs {
		h = h.word(math.Float64bits(f))
	}
	return h
}
