// Package umtslab is a full reproduction of "Providing UMTS connectivity
// to PlanetLab nodes" (Botta, Canonico, Di Stasi, Pescapé, Ventre;
// ROADS'08, co-located with CoNEXT 2008) as a simulated system: the
// PlanetLab node software stack (slices, VNET+, vsys, iproute2/iptables
// analogs, kernel-module layer), the UMTS hardware and network path
// (3G datacards with an AT command set, serial lines, a full PPP suite,
// a calibrated radio/operator model), the D-ITG traffic generation and
// analysis methodology, and the paper's contribution itself: the `umts`
// vsys command that gives one slice at a time exclusive, isolated use of
// the cellular uplink.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for the
// paper-versus-measured record. cmd/experiments regenerates every figure.
package umtslab
