//go:build !linux

package store

func dropResident([]byte) {}
