package ssta_test

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

// One linear-time sweep yields the circuit delay distribution.
func ExampleAnalyze() {
	m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	r := ssta.Analyze(m, m.UnitSizes(), false)
	fmt.Printf("mu = %.2f, sigma = %.2f\n", r.Tmax.Mu, r.Tmax.Sigma())
	// Output:
	// mu = 7.38, sigma = 0.82
}

// The adjoint sweep gives the exact gradient of mu + k*sigma with
// respect to every speed factor in one backward pass.
func ExampleGradMuPlusKSigma() {
	c := netlist.Tree7()
	m := delay.MustBind(netlist.MustCompile(c), delay.PaperTree())
	phi, grad := ssta.GradMuPlusKSigma(m, m.UnitSizes(), 3)
	// Upsizing the output gate G helps the most (most negative).
	fmt.Printf("phi = %.2f, d phi/d S_G = %.2f\n", phi, grad[c.MustID("G")])
	// Output:
	// phi = 9.83, d phi/d S_G = -1.34
}

// Corner analysis quantifies the pessimism of traditional worst-case
// timing (the paper's introduction).
func ExampleCorners() {
	m := delay.MustBind(netlist.MustCompile(netlist.Chain(16)), delay.Default())
	cr := ssta.Corners(m, m.UnitSizes(), 3, 1)
	fmt.Printf("worst corner exceeds the true 99.8%% quantile: %v\n",
		cr.Pessimism > 0)
	// Output:
	// worst corner exceeds the true 99.8% quantile: true
}
