// Package kmeans carries an allow-listed name: Sequential has no caller
// here either, and doclint's allow-list says why it stays quiet.
package kmeans

// Sequential stands in for the reference implementation.
func Sequential() {}
