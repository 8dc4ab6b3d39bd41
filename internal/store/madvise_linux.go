package store

import "syscall"

// dropResident tells the kernel the mapping's pages are not needed now:
// they leave the process's resident set and are read back from the file
// on the next access, so the mapping stays valid.
func dropResident(data []byte) {
	if len(data) > 0 {
		_ = syscall.Madvise(data, syscall.MADV_DONTNEED) // advisory: a failure costs memory, not correctness
	}
}
