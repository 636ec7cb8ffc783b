package mat

import "math"

// AdamStep is one Adam step's scalars: the learning rate, the moment decay
// rates β1 and β2, ε, and the step's bias corrections 1-β1^t and 1-β2^t.
type AdamStep struct {
	LR, Beta1, Beta2, Eps, BC1, BC2 float64
}

// adamCoeffs is an AdamStep as the kernels read it, with 1-β1 and 1-β2
// formed once. The assembly reads the fields by offset: keep the order.
type adamCoeffs struct {
	beta1, omb1, beta2, omb2, bc1, bc2, lr, eps float64
}

// AdamUpdate applies step s to the parameters w, whose gradients are g and
// whose first and second moments are m and v. w, m and v must be at least
// as long as g; elements past len(g) are left alone. For each i, in this
// order, every operation rounded on its own:
//
//	m = β1·m + (1-β1)·g
//	v = β2·v + (1-β2)·g·g
//	w = w - lr·(m/bc1) / (√(v/bc2) + ε)
//
// Each element depends on that element alone, so the slices may be any
// range of a parameter, and calls on disjoint ranges may run concurrently.
// It runs four lanes at a time where the CPU allows (simd.go), bit for bit
// equal to adamGo.
func AdamUpdate(w, g, m, v []float64, s AdamStep) {
	n := len(g)
	w, m, v = w[:n], m[:n], v[:n]
	k := adamCoeffs{s.Beta1, 1 - s.Beta1, s.Beta2, 1 - s.Beta2, s.BC1, s.BC2, s.LR, s.Eps}
	done := 0
	if arithSIMD {
		done = n &^ 3
		adamAVX2(w[:done], g[:done], m[:done], v[:done], &k)
	}
	adamGo(w[done:], g[done:], m[done:], v[done:], &k)
}

// adamGo is the portable AdamUpdate and the vector kernel's oracle.
func adamGo(w, g, m, v []float64, k *adamCoeffs) {
	for i, gi := range g {
		m[i] = k.beta1*m[i] + k.omb1*gi
		v[i] = k.beta2*v[i] + k.omb2*gi*gi
		w[i] -= k.lr * (m[i] / k.bc1) / (math.Sqrt(v[i]/k.bc2) + k.eps)
	}
}
