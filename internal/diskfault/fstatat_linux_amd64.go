package diskfault

import "syscall"

const sysFstatat = syscall.SYS_NEWFSTATAT
